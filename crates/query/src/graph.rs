//! The standing-query engine: a DAG of derived streams with punctuation
//! feedback and distributional answers.
//!
//! [`QueryGraph`] is the one place standing queries are registered,
//! evaluated, verified against ground truth, and propagated down to
//! per-stream deltas. Its node kinds:
//!
//! * **Raw aliases** ([`QueryGraph::add_raw`]) name the suppressed streams.
//! * **Aggregates** ([`QueryGraph::add_aggregate`], and the 1-ary
//!   [`QueryGraph::add_point`]) are *value* nodes: a query's output is a
//!   first-class stream other queries subscribe to — `AVG(avg_lo, avg_hi)`
//!   composes aggregates over aggregates. Registration keeps the graph
//!   acyclic (typed [`QueryError::Cycle`]) and evaluation runs in
//!   topological order, so every node sees its inputs' fresh values each
//!   tick.
//! * **Sinks** read one value node and feed nothing: threshold alerts
//!   ([`QueryGraph::add_alert`]), tumbling panes
//!   ([`QueryGraph::add_tumbling_avg`]) and sliding windows
//!   ([`QueryGraph::add_sliding`]: AVG / MIN / MAX / COUNT-above over the
//!   last `W` ticks, on the [`crate::window`] aggregators).
//!
//! Two things ride on the DAG:
//!
//! * **Punctuation feedback.** Downstream operators know things the static
//!   propagation cannot: a threshold alert whose input is far from the
//!   threshold, or a tumbling pane that under-spent its imprecision budget,
//!   can *relax* the deltas they demand upstream without weakening any
//!   served guarantee. [`QueryGraph::required_deltas`] recomputes the
//!   per-stream grants every tick; with feedback off it is the static
//!   interval-arithmetic propagation, the same every tick.
//! * **Distributional answers.** Every server-side estimate carries a Kalman
//!   innovation variance; the graph propagates it through aggregates and
//!   serves a calibrated `value ± z·σ` interval
//!   ([`DistributionalAnswer`]) alongside the worst-case δ bound.
//!
//! Soundness never depends on the feedback: served bounds are computed from
//! the deltas actually *in force* (which lag issued grants by transport
//! latency), so `|served − truth| ≤ bound` holds whatever the grants do.
//! The punctuation mechanisms additionally keep registered *contracts*
//! intact by construction — see [`QueryGraph::required_deltas`].

use std::collections::HashMap;

use kalstream_obs::{Instrument, Scope};

use crate::window::{WindowAgg, WindowAnswer, WindowSpec};
use crate::{evaluate_threshold, AggKind, AlertState, Answer, QueryError, StreamId, StreamView};

/// Transport lag, in ticks, the pane budget guard assumes between issuing a
/// grant and the moment it is in force at the source (directive delivery
/// plus one shadow-filter tick). Grants issued now may be consumed at the
/// *previous* grant level for this many more ticks, and the guard reserves
/// budget for exactly that.
const GRANT_LAG: usize = 2;

/// Hard cap on a pane's punctuation-relaxed per-tick grant, as a multiple
/// of the pane contract. Keeps a long under-spent stretch from issuing
/// grants so loose that the in-flight lag window dominates the budget.
const PANE_RELAX_CAP: f64 = 8.0;

/// An alert only relaxes once its input is guaranteed at least this many
/// margins away from the threshold — closer than that, the static margin
/// stands so the verdict can resolve promptly on approach.
const ALERT_RELAX_AT: f64 = 4.0;

/// Relaxed alert grant = guaranteed distance to the threshold divided by
/// this. The slack lets the walk drift for several ticks before the verdict
/// could even become uncertain, which is what makes the relaxation safe to
/// ride through the grant lag.
const ALERT_RELAX_DIV: f64 = 4.0;

/// The shared violation predicate: absolute + relative slack so bit-level
/// float noise never counts as a broken guarantee.
fn violates(err: f64, bound: f64) -> bool {
    err > bound * (1.0 + 1e-9) + 1e-12
}

/// Every contract, margin and delta a query registers must be a usable
/// precision bound.
fn check_positive(what: &str, x: f64) -> Result<(), QueryError> {
    if x > 0.0 && x.is_finite() {
        return Ok(());
    }
    Err(QueryError::Invalid {
        reason: format!("{what} must be positive and finite, got {x}"),
    })
}

/// A per-tick slice too short for a registered raw alias's stream index is a
/// panic, not a skipped node: a node that is never fed is never verified, and
/// the graph would report zero violations for answers it never produced.
#[cold]
fn unfed_alias(alias: &str, stream: StreamId, passed: usize, what: &str) -> ! {
    panic!(
        "raw alias {alias:?} reads stream {} but only {passed} {what} were passed",
        stream.0
    )
}

/// Inverse standard-normal CDF (Acklam's rational approximation, max
/// absolute error ≈ 1.15e-9 — far below the calibration noise of any
/// finite-sample coverage estimate). Domain `(0, 1)`; returns `NaN`
/// outside.
// The published coefficients carry more digits than f64 can represent;
// keeping them verbatim (rather than clippy's truncation) documents the
// source and rounds to the identical f64 bits either way.
#[allow(clippy::excessive_precision)]
fn probit(p: f64) -> f64 {
    if !(p > 0.0 && p < 1.0) {
        return f64::NAN;
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -probit(1.0 - p)
    }
}

/// Two-sided standard-normal quantile: the `z` with
/// `P(|N(0,1)| ≤ z) = level`. `z_quantile(0.95) ≈ 1.96`.
pub fn z_quantile(level: f64) -> f64 {
    probit(0.5 + level / 2.0)
}

/// A query answer served with *both* uncertainty vocabularies: the
/// worst-case interval-arithmetic bound the suppression protocol
/// guarantees, and a calibrated distributional interval derived from the
/// propagated Kalman innovation variance. The distributional interval is
/// usually far tighter than the worst case (the δ bound must hold for
/// adversarial noise; the σ interval describes the noise actually modeled)
/// — experiment Q3 gates its empirical coverage against lockstep ground
/// truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionalAnswer {
    /// The served value.
    pub value: f64,
    /// Propagated standard deviation of the served value.
    pub stddev: f64,
    /// Calibrated half-width `z(level) · stddev`: the truth lies inside
    /// `value ± interval` with probability ≈ `level` under the filter model.
    pub interval: f64,
    /// The worst-case half-width (`Answer::bound`): `|truth − value|` never
    /// exceeds it, full stop.
    pub worst_case: f64,
    /// The nominal two-sided coverage level of `interval`.
    pub level: f64,
}

/// Evaluated output of a value node: what downstream consumers see.
#[derive(Debug, Clone, Copy)]
struct NodeOut {
    value: f64,
    bound: f64,
    variance: f64,
    staleness: u64,
}

/// What a slot computes. The value operators are held inline; a sink names
/// its entry in the state array of its kind.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Alias for a raw stream: reads [`StreamView`]s pushed by the harness.
    Raw { stream: StreamId },
    /// AVG / SUM / MIN / MAX over value nodes (raw or derived), optionally
    /// carrying its own precision contract.
    Aggregate {
        kind: AggKind,
        contract: Option<f64>,
    },
    /// Tumbling-window average over one value node: `panes[pane]`.
    Tumbling { pane: u32 },
    /// Tri-state threshold alert over one value node: `alerts[alert]`.
    Alert { alert: u32 },
    /// Sliding-window aggregate over one value node: `windows[window]`.
    Sliding { window: u32 },
}

impl Op {
    /// Raw aliases and aggregates publish a value other nodes can read;
    /// the rest are sinks.
    fn is_value(self) -> bool {
        matches!(self, Op::Raw { .. } | Op::Aggregate { .. })
    }
}

/// One node as a tick sees it — 32 bytes, stored in evaluation order, so
/// the forward and reverse walks read memory front to back and back to
/// front. Everything a tick does not touch (the id, the registration
/// index) lives in [`QueryGraph`]'s registration-order arrays.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: Op,
    /// `inputs[lo..hi]` are the slots this one reads, in registered order:
    /// none for a raw alias, exactly one for a sink.
    lo: u32,
    hi: u32,
}

/// Slots and input edges are addressed with `u32` (half the index traffic
/// of `usize`); a graph past 2³² of either could not be held in memory.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a query graph addresses its nodes and edges with u32")
}

/// Files a sink's state in the array of its kind.
fn file<T>(states: &mut Vec<T>, state: T) -> u32 {
    states.push(state);
    index(states.len() - 1)
}

/// Per-node verification counters.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    violations: u64,
    covered: u64,
    checked: u64,
    /// Largest served-bound / contract ratio observed (contract nodes).
    max_ratio: f64,
}

/// A tumbling pane: accumulates `len` ticks, publishes the pane average at
/// close, then starts fresh. The pane's imprecision budget
/// (`contract · len`) is what the punctuation feedback carries forward
/// within a pane.
#[derive(Debug)]
struct Pane {
    len: usize,
    contract: f64,
    sum_value: f64,
    sum_bound: f64,
    sum_sigma: f64,
    max_staleness: u64,
    filled: usize,
    just_closed: bool,
    truth_sum: f64,
    truth_filled: usize,
    truth_closed: Option<f64>,
    last_grant: f64,
    recent_grants: [f64; GRANT_LAG],
    closed: u64,
}

impl Pane {
    fn new(len: usize, contract: f64) -> Self {
        Pane {
            len,
            contract,
            sum_value: 0.0,
            sum_bound: 0.0,
            sum_sigma: 0.0,
            max_staleness: 0,
            filled: 0,
            just_closed: false,
            truth_sum: 0.0,
            truth_filled: 0,
            truth_closed: None,
            last_grant: contract,
            recent_grants: [contract; GRANT_LAG],
            closed: 0,
        }
    }

    /// Accumulates one tick of the input; `Some` is the pane this tick
    /// closed (until the next close, the last one stays published).
    fn observe(&mut self, v: NodeOut) -> Option<NodeOut> {
        self.sum_value += v.value;
        self.sum_bound += v.bound;
        self.sum_sigma += v.variance.max(0.0).sqrt();
        self.max_staleness = self.max_staleness.max(v.staleness);
        self.filled += 1;
        if self.filled != self.len {
            return None;
        }
        let w = self.len as f64;
        let closed = NodeOut {
            value: self.sum_value / w,
            bound: self.sum_bound / w,
            // Serial correlation across the pane's ticks breaks
            // independence, so the pane variance is the conservative
            // full-correlation bound ((Σσ)/W)².
            variance: (self.sum_sigma / w) * (self.sum_sigma / w),
            staleness: self.max_staleness,
        };
        self.sum_value = 0.0;
        self.sum_bound = 0.0;
        self.sum_sigma = 0.0;
        self.max_staleness = 0;
        self.filled = 0;
        self.just_closed = true;
        self.closed += 1;
        Some(closed)
    }

    /// Accumulates one tick of the input's truth; on the tick the served
    /// pane closed, returns it with the true pane average to check against.
    fn verify(&mut self, t_in: f64, published: Option<NodeOut>) -> Option<(NodeOut, f64)> {
        if t_in.is_finite() {
            self.truth_sum += t_in;
            self.truth_filled += 1;
            if self.truth_filled == self.len {
                self.truth_closed = Some(self.truth_sum / self.len as f64);
                self.truth_sum = 0.0;
                self.truth_filled = 0;
            }
        }
        if !self.just_closed {
            return None;
        }
        self.just_closed = false;
        published.zip(self.truth_closed)
    }

    /// This tick's per-tick allowance: the contract, or under feedback the
    /// unspent pane budget spread over the pane's remaining ticks.
    fn grant(&mut self, feedback: bool) -> f64 {
        let g = if feedback {
            let budget = self.contract * self.len as f64;
            let remaining = self.len - self.filled;
            let max_recent = self
                .recent_grants
                .iter()
                .fold(self.last_grant, |a, &b| a.max(b));
            let g = if remaining > GRANT_LAG {
                // Unspent budget spread over the remaining ticks, minus
                // GRANT_LAG ticks reserved at the recent grant level: even
                // if every in-flight directive lands late, the pane-average
                // bound stays ≤ contract.
                (budget - self.sum_bound - GRANT_LAG as f64 * max_recent)
                    / (remaining - GRANT_LAG) as f64
            } else {
                // Final lag window of the pane: no new decision can land in
                // time, hold the last grant.
                self.last_grant
            };
            g.clamp(0.0, PANE_RELAX_CAP * self.contract)
        } else {
            self.contract
        };
        self.recent_grants.rotate_left(1);
        self.recent_grants[GRANT_LAG - 1] = g;
        self.last_grant = g;
        g
    }
}

/// A tri-state threshold alert.
#[derive(Debug)]
struct Alert {
    threshold: f64,
    margin: f64,
    state: AlertState,
    transitions: u64,
}

impl Alert {
    fn observe(&mut self, v: NodeOut) {
        let next = evaluate_threshold(
            &Answer {
                value: v.value,
                bound: v.bound,
                max_staleness: v.staleness,
            },
            self.threshold,
        );
        if next != self.state {
            self.transitions += 1;
        }
        self.state = next;
    }

    /// `true` when the current verdict is resolved and the input's truth
    /// says otherwise.
    fn contradicted_by(&self, t_in: f64) -> bool {
        match self.state {
            AlertState::Firing => t_in <= self.threshold,
            AlertState::Quiet => t_in > self.threshold,
            AlertState::Uncertain => false,
        }
    }

    /// The margin — or, under feedback, a relaxed grant while the input is
    /// guaranteed far from the threshold.
    fn grant(&self, feedback: bool, input: Option<NodeOut>) -> f64 {
        match input {
            Some(v) if feedback => {
                let dist = (v.value - self.threshold).abs() - v.bound;
                if dist > ALERT_RELAX_AT * self.margin {
                    (dist / ALERT_RELAX_DIV).max(self.margin)
                } else {
                    self.margin
                }
            }
            _ => self.margin,
        }
    }
}

/// A sliding-window aggregate: `served` slides over the input's
/// `(value, bound)`, `mirror` over its ground truth with bound 0 — so the
/// mirror's answer *is* the true window aggregate.
#[derive(Debug)]
struct Window {
    contract: f64,
    served: WindowAgg,
    mirror: WindowAgg,
}

/// A DAG of continuous queries over precision-bounded streams: raw-stream
/// aliases and derived streams share one id namespace, evaluation is
/// topological, and per-stream delta requirements flow *up* the graph every
/// tick — statically or with punctuation feedback.
///
/// Driving loop, once per tick:
///
/// 1. [`QueryGraph::observe_tick`] with the served stream views (deltas as
///    actually in force) and per-stream variances;
/// 2. [`QueryGraph::verify_tick`] with ground truth, when available — counts
///    guarantee violations and distributional coverage;
/// 3. [`QueryGraph::required_deltas`] → push the grants to the sources
///    (e.g. `ServerEndpoint::push_bound_directive`).
///
/// Everything a tick reads or writes is a flat array the graph owns,
/// indexed by *slot* — a node's position in evaluation order — so a tick
/// allocates nothing and walks memory sequentially. Registration appends
/// (registration order is topological: inputs must already exist); only
/// [`QueryGraph::rewire`] can reorder, and it rebuilds the arrays then.
#[derive(Debug)]
pub struct QueryGraph {
    /// Node ids in registration order (the order `export` reports them in).
    ids: Vec<String>,
    /// Registration index of each id.
    by_id: HashMap<String, usize>,
    /// Slot of each node, by registration index.
    slot_of: Vec<u32>,
    /// The nodes in evaluation order: every slot after all of its inputs.
    slots: Vec<Slot>,
    /// Every slot's input slots, back to back ([`Slot::lo`], [`Slot::hi`]).
    inputs: Vec<u32>,
    /// Latest published output per slot — the only copy (value nodes and
    /// closed panes; `None` for alerts, windows and never-evaluated nodes).
    outs: Vec<Option<NodeOut>>,
    tallies: Vec<Tally>,
    panes: Vec<Pane>,
    alerts: Vec<Alert>,
    windows: Vec<Window>,
    /// [`QueryGraph::verify_tick`]'s scratch: this tick's ground truth per
    /// value slot (`NaN` = unknown). A slot is written before any consumer
    /// reads it, so nothing carries over between ticks.
    mirror: Vec<f64>,
    /// [`QueryGraph::required_deltas`]' scratch: the tightest grant any
    /// consumer has issued to each slot. All `∞` between calls.
    granted: Vec<f64>,
    /// Number of raw aliases: sizes the map `required_deltas` returns.
    raws: usize,
    /// Punctuation feedback on/off; off reproduces static propagation.
    feedback: bool,
    /// `z` used for coverage accounting in [`QueryGraph::verify_tick`].
    z: f64,
    /// Nominal coverage level behind `z`.
    level: f64,
    violations: u64,
    relaxations: u64,
    ticks: u64,
}

impl Default for QueryGraph {
    fn default() -> Self {
        QueryGraph::new()
    }
}

impl QueryGraph {
    /// Creates an empty graph (feedback off, coverage level 0.95).
    pub fn new() -> Self {
        QueryGraph {
            ids: Vec::new(),
            by_id: HashMap::new(),
            slot_of: Vec::new(),
            slots: Vec::new(),
            inputs: Vec::new(),
            outs: Vec::new(),
            tallies: Vec::new(),
            panes: Vec::new(),
            alerts: Vec::new(),
            windows: Vec::new(),
            mirror: Vec::new(),
            granted: Vec::new(),
            raws: 0,
            feedback: false,
            z: z_quantile(0.95),
            level: 0.95,
            violations: 0,
            relaxations: 0,
            ticks: 0,
        }
    }

    /// Enables or disables punctuation feedback. Off (the default),
    /// [`QueryGraph::required_deltas`] computes exactly the static
    /// propagation; on, alerts and panes may relax their grants.
    pub fn set_feedback(&mut self, on: bool) {
        self.feedback = on;
    }

    /// Sets the nominal coverage level used for the distributional-interval
    /// accounting in [`QueryGraph::verify_tick`] (default 0.95).
    pub fn set_level(&mut self, level: f64) {
        self.level = level;
        self.z = z_quantile(level);
    }

    /// `true` when a node with this id exists (raw alias or derived).
    pub fn contains(&self, id: &str) -> bool {
        self.by_id.contains_key(id)
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no node is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot of the node registered under `id`.
    fn slot(&self, id: &str) -> Option<usize> {
        Some(self.slot_of[*self.by_id.get(id)?] as usize)
    }

    /// Rejects an id already taken in the single raw+derived namespace.
    fn check_fresh(&self, id: &str) -> Result<(), QueryError> {
        if self.by_id.contains_key(id) {
            return Err(QueryError::DuplicateId { id: id.to_string() });
        }
        Ok(())
    }

    /// Resolves input ids to slots, insisting each is a *value* node (raw
    /// or aggregate — alerts, panes and windows are sinks).
    fn resolve_inputs(&self, of: &str, inputs: &[&str]) -> Result<Vec<u32>, QueryError> {
        if inputs.is_empty() {
            return Err(QueryError::Invalid {
                reason: format!("node {of:?} needs at least one input"),
            });
        }
        inputs
            .iter()
            .map(|&input| {
                if input == of {
                    // A node naming itself is the smallest possible cycle.
                    return Err(QueryError::Cycle { id: of.to_string() });
                }
                let slot = self.slot(input).ok_or_else(|| QueryError::UnknownNode {
                    id: input.to_string(),
                })?;
                if !self.slots[slot].op.is_value() {
                    return Err(QueryError::Invalid {
                        reason: format!("input {input:?} of {of:?} is not a value node"),
                    });
                }
                Ok(index(slot))
            })
            .collect()
    }

    /// Appends a node under an id [`QueryGraph::check_fresh`] accepted. Its
    /// inputs are registered already, so the last slot is a valid place.
    fn push_node(&mut self, id: &str, op: Op, inputs: &[u32]) {
        self.by_id.insert(id.to_string(), self.ids.len());
        self.ids.push(id.to_string());
        self.slot_of.push(index(self.slots.len()));
        let lo = index(self.inputs.len());
        self.inputs.extend_from_slice(inputs);
        self.slots.push(Slot {
            op,
            lo,
            hi: index(self.inputs.len()),
        });
        self.outs.push(None);
        self.tallies.push(Tally::default());
        self.mirror.push(f64::NAN);
        self.granted.push(f64::INFINITY);
    }

    /// Registers a derived node: fresh id, every input an existing value
    /// node, then whatever `op` files for it. A failed registration claims
    /// nothing.
    fn add_derived(
        &mut self,
        id: &str,
        inputs: &[&str],
        op: impl FnOnce(&mut Self) -> Op,
    ) -> Result<(), QueryError> {
        self.check_fresh(id)?;
        let inputs = self.resolve_inputs(id, inputs)?;
        let op = op(self);
        self.push_node(id, op, &inputs);
        Ok(())
    }

    /// Registers a raw-stream alias: the graph-side name of `stream`.
    ///
    /// # Errors
    /// [`QueryError::DuplicateId`] when the id is taken — by *either* a raw
    /// alias or a derived stream; the namespace is shared.
    pub fn add_raw(&mut self, id: &str, stream: StreamId) -> Result<(), QueryError> {
        self.check_fresh(id)?;
        self.push_node(id, Op::Raw { stream }, &[]);
        self.raws += 1;
        Ok(())
    }

    /// Registers an aggregate over value nodes (raw aliases or other
    /// aggregates — this is what makes query outputs first-class derived
    /// streams). `contract`, when given, is the precision bound this node
    /// promises downstream consumers and external readers.
    ///
    /// # Errors
    /// [`QueryError::DuplicateId`] on id collision (shared namespace),
    /// [`QueryError::UnknownNode`] on a missing input,
    /// [`QueryError::Cycle`] on self-reference,
    /// [`QueryError::Invalid`] on an empty input list, a non-value input,
    /// or a non-positive contract.
    pub fn add_aggregate(
        &mut self,
        id: &str,
        kind: AggKind,
        inputs: &[&str],
        contract: Option<f64>,
    ) -> Result<(), QueryError> {
        if let Some(c) = contract {
            check_positive("contract", c)?;
        }
        self.add_derived(id, inputs, |_| Op::Aggregate { kind, contract })
    }

    /// Registers a point query: the identity 1-ary aggregate with contract
    /// `delta` — "the current value of `input`, within `delta`".
    ///
    /// # Errors
    /// As [`QueryGraph::add_aggregate`].
    pub fn add_point(&mut self, id: &str, input: &str, delta: f64) -> Result<(), QueryError> {
        self.add_aggregate(id, AggKind::Avg, &[input], Some(delta))
    }

    /// Registers a tumbling-window average over one value node: every
    /// `pane` ticks it publishes the pane average with contract `contract`
    /// on the answer bound. Under feedback, budget the pane did not spend
    /// early (because other queries forced tighter deltas) is carried
    /// forward *within* the pane as looser grants.
    ///
    /// # Errors
    /// As [`QueryGraph::add_aggregate`], plus [`QueryError::Invalid`] on a
    /// zero pane length.
    pub fn add_tumbling_avg(
        &mut self,
        id: &str,
        input: &str,
        pane: usize,
        contract: f64,
    ) -> Result<(), QueryError> {
        if pane == 0 {
            return Err(QueryError::Invalid {
                reason: "pane length must be at least 1".into(),
            });
        }
        check_positive("contract", contract)?;
        self.add_derived(id, &[input], |g| Op::Tumbling {
            pane: file(&mut g.panes, Pane::new(pane, contract)),
        })
    }

    /// Registers a sliding-window aggregate over one value node: every tick
    /// it answers AVG / MIN / MAX (value ± bound) or COUNT-above (a
    /// guaranteed interval) over the input's last `W` served values, and
    /// [`QueryGraph::verify_tick`] checks that answer against the same
    /// window over ground truth. The static propagation grants `contract`
    /// to the input: per-tick deltas ≤ ε keep every window aggregate's
    /// bound ≤ ε (AVG: mean of bounds; MIN/MAX: max of bounds). For
    /// [`WindowSpec::CountAbove`] the contract only controls how many ticks
    /// classify as uncertain, not the interval's soundness. Feedback never
    /// relaxes a sliding grant.
    ///
    /// # Errors
    /// As [`QueryGraph::add_aggregate`], plus [`QueryError::Invalid`] on a
    /// zero window or a non-finite count threshold.
    pub fn add_sliding(
        &mut self,
        id: &str,
        input: &str,
        spec: WindowSpec,
        contract: f64,
    ) -> Result<(), QueryError> {
        check_positive("contract", contract)?;
        let served = WindowAgg::build(spec)?;
        let mirror = served.clone();
        self.add_derived(id, &[input], |g| Op::Sliding {
            window: file(
                &mut g.windows,
                Window {
                    contract,
                    served,
                    mirror,
                },
            ),
        })
    }

    /// Registers a tri-state threshold alert over one value node. The
    /// static propagation grants `margin` to the input (so the verdict can
    /// resolve whenever the truth is ≳ 2·margin from the threshold); under
    /// feedback the grant relaxes while the input is guaranteed far from
    /// the threshold.
    ///
    /// # Errors
    /// As [`QueryGraph::add_aggregate`], plus [`QueryError::Invalid`] on a
    /// non-positive margin or non-finite threshold.
    pub fn add_alert(
        &mut self,
        id: &str,
        input: &str,
        threshold: f64,
        margin: f64,
    ) -> Result<(), QueryError> {
        check_positive("margin", margin)?;
        if !threshold.is_finite() {
            return Err(QueryError::Invalid {
                reason: format!("threshold must be finite, got {threshold}"),
            });
        }
        self.add_derived(id, &[input], |g| Op::Alert {
            alert: file(
                &mut g.alerts,
                Alert {
                    threshold,
                    margin,
                    state: AlertState::Uncertain,
                    transitions: 0,
                },
            ),
        })
    }

    /// Replaces an aggregate node's inputs, re-checking acyclicity — the
    /// one registration-order escape hatch, and therefore the place a
    /// genuine cycle can be attempted. On [`QueryError::Cycle`] the graph
    /// is left exactly as it was.
    ///
    /// # Errors
    /// [`QueryError::UnknownNode`] when `id` or an input is missing,
    /// [`QueryError::Invalid`] when `id` is not an aggregate or an input is
    /// not a value node, [`QueryError::Cycle`] (naming `id`) when the new
    /// wiring is cyclic.
    pub fn rewire(&mut self, id: &str, inputs: &[&str]) -> Result<(), QueryError> {
        let target = self
            .slot(id)
            .ok_or_else(|| QueryError::UnknownNode { id: id.to_string() })?;
        let rewired = self.resolve_inputs(id, inputs)?;
        if !matches!(self.slots[target].op, Op::Aggregate { .. }) {
            return Err(QueryError::Invalid {
                reason: format!("only aggregate nodes can be rewired, {id:?} is not one"),
            });
        }
        // The graph was acyclic before this call, so any cycle in the new
        // wiring runs through the one node whose inputs changed.
        let order = self
            .evaluation_order(target, &rewired)
            .ok_or_else(|| QueryError::Cycle { id: id.to_string() })?;
        self.lay_out(&order, target, &rewired);
        Ok(())
    }

    /// The inputs of `slot` with `target` rewired to `rewired` — the wiring
    /// [`QueryGraph::rewire`] is about to adopt, before it is committed.
    fn inputs_with<'a>(&'a self, slot: usize, target: usize, rewired: &'a [u32]) -> &'a [u32] {
        if slot == target {
            return rewired;
        }
        let Slot { lo, hi, .. } = self.slots[slot];
        &self.inputs[lo as usize..hi as usize]
    }

    /// An evaluation order (current slots, each after all of its inputs)
    /// for the wiring with `target` rewired, or `None` when that wiring is
    /// cyclic. Depth-first post-order from the slots in their current
    /// order, O(V + E): a node whose inputs all sit earlier keeps its place
    /// relative to them, so an already-valid layout comes back unchanged.
    fn evaluation_order(&self, target: usize, rewired: &[u32]) -> Option<Vec<u32>> {
        const UNSEEN: u8 = 0;
        const ON_PATH: u8 = 1;
        const PLACED: u8 = 2;
        let n = self.slots.len();
        let mut mark = vec![UNSEEN; n];
        let mut order = Vec::with_capacity(n);
        // (slot, how many of its inputs have been descended into)
        let mut path: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if mark[root] != UNSEEN {
                continue;
            }
            mark[root] = ON_PATH;
            path.push((root, 0));
            while let Some((slot, next)) = path.last_mut() {
                match self.inputs_with(*slot, target, rewired).get(*next) {
                    Some(&input) => {
                        *next += 1;
                        let input = input as usize;
                        match mark[input] {
                            UNSEEN => {
                                mark[input] = ON_PATH;
                                path.push((input, 0));
                            }
                            ON_PATH => return None,
                            _ => {}
                        }
                    }
                    None => {
                        mark[*slot] = PLACED;
                        order.push(index(*slot));
                        path.pop();
                    }
                }
            }
        }
        Some(order)
    }

    /// Rebuilds the per-slot arrays in `order` (new slot → current slot),
    /// with `target`'s inputs replaced by `rewired`. Sink state stays where
    /// it is filed; the two scratch arrays hold nothing between calls.
    fn lay_out(&mut self, order: &[u32], target: usize, rewired: &[u32]) {
        let mut new_of = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            new_of[old as usize] = index(new);
        }
        let mut inputs = Vec::with_capacity(self.inputs.len());
        let slots = order
            .iter()
            .map(|&old| {
                let lo = index(inputs.len());
                let moved = self.inputs_with(old as usize, target, rewired);
                inputs.extend(moved.iter().map(|&j| new_of[j as usize]));
                Slot {
                    op: self.slots[old as usize].op,
                    lo,
                    hi: index(inputs.len()),
                }
            })
            .collect();
        self.outs = order.iter().map(|&old| self.outs[old as usize]).collect();
        self.tallies = order
            .iter()
            .map(|&old| self.tallies[old as usize])
            .collect();
        for slot in &mut self.slot_of {
            *slot = new_of[*slot as usize];
        }
        self.slots = slots;
        self.inputs = inputs;
    }

    /// The id behind a slot — the panic messages' reverse lookup.
    fn id_of(&self, slot: usize) -> &str {
        let node = self
            .slot_of
            .iter()
            .position(|&s| s as usize == slot)
            .expect("every slot holds a registered node");
        &self.ids[node]
    }

    /// Evaluates the whole graph for one tick, topologically. `views[s]`
    /// is the served view of raw stream `s` with the delta *actually in
    /// force* (that is what makes every published bound honest, whatever
    /// the feedback grants are doing); `variances[s]` the matching
    /// predictive variance (missing entries default to 0).
    ///
    /// # Panics
    /// Panics, naming the alias, when a registered raw stream has no entry
    /// in `views`.
    pub fn observe_tick(&mut self, views: &[StreamView], variances: &[f64]) {
        self.ticks += 1;
        for slot in 0..self.slots.len() {
            let Slot { op, lo, hi } = self.slots[slot];
            let ins = &self.inputs[lo as usize..hi as usize];
            match op {
                Op::Raw { stream } => {
                    let Some(v) = views.get(stream.0) else {
                        unfed_alias(self.id_of(slot), stream, views.len(), "views");
                    };
                    self.outs[slot] = Some(NodeOut {
                        value: v.value,
                        bound: v.delta,
                        variance: variances.get(stream.0).copied().unwrap_or(0.0),
                        staleness: v.staleness,
                    });
                }
                Op::Aggregate { kind, contract } => {
                    // An unpublished input leaves the last output standing.
                    if let Some(out) = aggregate_outs(kind, ins, &self.outs) {
                        if let Some(c) = contract {
                            let tally = &mut self.tallies[slot];
                            tally.max_ratio = tally.max_ratio.max(out.bound / c);
                        }
                        self.outs[slot] = Some(out);
                    }
                }
                Op::Tumbling { pane } => {
                    let pane = &mut self.panes[pane as usize];
                    let closed = self.outs[ins[0] as usize].and_then(|v| pane.observe(v));
                    if let Some(closed) = closed {
                        let tally = &mut self.tallies[slot];
                        tally.max_ratio = tally.max_ratio.max(closed.bound / pane.contract);
                        self.outs[slot] = Some(closed);
                    }
                }
                // Alerts and sliding windows publish no `NodeOut`: theirs
                // stays `None`, which keeps them out of `answer()`.
                Op::Alert { alert } => {
                    if let Some(v) = self.outs[ins[0] as usize] {
                        self.alerts[alert as usize].observe(v);
                    }
                }
                Op::Sliding { window } => {
                    if let Some(v) = self.outs[ins[0] as usize] {
                        self.windows[window as usize].served.push(v.value, v.bound);
                    }
                }
            }
        }
    }

    /// Verifies every published answer against ground truth (index-aligned
    /// with the raw streams), mirroring the DAG arithmetic over the truth
    /// values. Counts worst-case-bound violations (returned for this tick)
    /// and distributional coverage at the configured level; resolved alert
    /// verdicts are checked against the truth of their input, sliding-window
    /// answers against the same window over that truth (violations only, no
    /// coverage). Call once per tick, after [`QueryGraph::observe_tick`].
    ///
    /// # Panics
    /// Panics, naming the alias, when a registered raw stream has no entry
    /// in `truth`. A stream whose truth is unknown this tick is passed as
    /// `NaN` and skipped.
    pub fn verify_tick(&mut self, truth: &[f64]) -> u64 {
        let z = self.z;
        let mut new_violations = 0u64;
        for slot in 0..self.slots.len() {
            let Slot { op, lo, hi } = self.slots[slot];
            let ins = &self.inputs[lo as usize..hi as usize];
            // Served-vs-truth pair to check against the worst-case bound
            // and the distributional interval.
            let mut check: Option<(NodeOut, f64)> = None;
            // An alert verdict or a window answer the truth contradicts.
            let mut broken = false;
            match op {
                Op::Raw { stream } => {
                    let Some(&t) = truth.get(stream.0) else {
                        unfed_alias(self.id_of(slot), stream, truth.len(), "truths");
                    };
                    self.mirror[slot] = t;
                }
                Op::Aggregate { kind, .. } => {
                    self.mirror[slot] = aggregate_values(kind, ins, &self.mirror);
                }
                Op::Tumbling { pane } => {
                    check = self.panes[pane as usize]
                        .verify(self.mirror[ins[0] as usize], self.outs[slot]);
                }
                Op::Alert { alert } => {
                    let t_in = self.mirror[ins[0] as usize];
                    broken = t_in.is_finite() && self.alerts[alert as usize].contradicted_by(t_in);
                }
                Op::Sliding { window } => {
                    let t_in = self.mirror[ins[0] as usize];
                    if t_in.is_finite() {
                        let w = &mut self.windows[window as usize];
                        broken = window_contradicts(&w.served, &mut w.mirror, t_in);
                    }
                }
            }
            if op.is_value() && self.mirror[slot].is_finite() {
                check = self.outs[slot].map(|out| (out, self.mirror[slot]));
            }
            let tally = &mut self.tallies[slot];
            if let Some((out, t)) = check {
                let err = (out.value - t).abs();
                if violates(err, out.bound) {
                    tally.violations += 1;
                    new_violations += 1;
                }
                tally.checked += 1;
                if !violates(err, z * out.variance.max(0.0).sqrt()) {
                    tally.covered += 1;
                }
            }
            if broken {
                tally.violations += 1;
                new_violations += 1;
            }
        }
        self.violations += new_violations;
        new_violations
    }

    /// Computes the per-stream precision grant satisfying every registered
    /// contract, flowing requirements *up* the DAG (consumers before
    /// inputs, i.e. reverse topological order):
    ///
    /// * an aggregate's effective bound is `min(own contract, tightest
    ///   consumer grant)`; it grants AVG/MIN/MAX inputs that bound and SUM
    ///   inputs `bound / k` — the uniform split of
    ///   [`crate::QueryRegistry::required_deltas`];
    /// * an alert grants its margin — or, under feedback, a relaxed grant
    ///   while its input is guaranteed far from the threshold (the verdict
    ///   stays sound regardless, because served bounds come from deltas in
    ///   force, not from grants);
    /// * a tumbling pane grants its per-tick allowance: statically the
    ///   contract itself; under feedback the unspent pane budget spread
    ///   over the pane's remaining ticks, with `GRANT_LAG` ticks of
    ///   budget held back at the recent grant level so in-flight
    ///   directives cannot overrun the pane contract;
    /// * a sliding window grants its contract, feedback or not.
    ///
    /// Call once per tick, after [`QueryGraph::observe_tick`]. Streams no
    /// registered query constrains are absent from the result. With
    /// feedback off the result is tick-invariant (the static propagation).
    pub fn required_deltas(&mut self) -> HashMap<StreamId, f64> {
        // Sized once: at most one entry per raw alias.
        let mut required: HashMap<StreamId, f64> = HashMap::with_capacity(self.raws);
        let feedback = self.feedback;
        let mut relaxations = 0u64;
        for slot in (0..self.slots.len()).rev() {
            let Slot { op, lo, hi } = self.slots[slot];
            let ins = &self.inputs[lo as usize..hi as usize];
            // Every consumer sits later in the order and has been walked,
            // so this slot's grant is final; taking it leaves the scratch
            // all-∞ for the next call.
            let granted = std::mem::replace(&mut self.granted[slot], f64::INFINITY);
            // What this slot grants each of its inputs (∞: nothing).
            let per = match op {
                Op::Raw { stream } => {
                    if granted.is_finite() {
                        required
                            .entry(stream)
                            .and_modify(|d| *d = d.min(granted))
                            .or_insert(granted);
                    }
                    continue;
                }
                Op::Aggregate { kind, contract } => {
                    let eff = contract.unwrap_or(f64::INFINITY).min(granted);
                    match kind {
                        AggKind::Avg | AggKind::Min | AggKind::Max => eff,
                        AggKind::Sum => eff / ins.len() as f64,
                    }
                }
                Op::Tumbling { pane } => {
                    let pane = &mut self.panes[pane as usize];
                    let g = pane.grant(feedback);
                    if g > pane.contract * (1.0 + 1e-9) {
                        relaxations += 1;
                    }
                    g
                }
                Op::Alert { alert } => {
                    let alert = &self.alerts[alert as usize];
                    let g = alert.grant(feedback, self.outs[ins[0] as usize]);
                    if g > alert.margin * (1.0 + 1e-9) {
                        relaxations += 1;
                    }
                    g
                }
                Op::Sliding { window } => self.windows[window as usize].contract,
            };
            for &j in ins {
                let g = &mut self.granted[j as usize];
                *g = g.min(per);
            }
        }
        self.relaxations += relaxations;
        required
    }

    /// The latest answer of a value node (or the last closed pane of a
    /// tumbling node): value, worst-case bound, staleness. `None` before
    /// the first evaluation, for alerts and sliding windows (see
    /// [`QueryGraph::window_answer`]), and for unknown ids.
    pub fn answer(&self, id: &str) -> Option<Answer> {
        self.outs[self.slot(id)?].map(|o| Answer {
            value: o.value,
            bound: o.bound,
            max_staleness: o.staleness,
        })
    }

    /// The latest answer of a value node with both uncertainty
    /// vocabularies: the worst-case δ bound and a calibrated `± z·σ`
    /// interval at two-sided coverage `level`.
    pub fn distributional(&self, id: &str, level: f64) -> Option<DistributionalAnswer> {
        self.outs[self.slot(id)?].map(|o| {
            let stddev = o.variance.max(0.0).sqrt();
            DistributionalAnswer {
                value: o.value,
                stddev,
                interval: z_quantile(level) * stddev,
                worst_case: o.bound,
                level,
            }
        })
    }

    /// The latest answer of a sliding-window node. `None` before its first
    /// tick, for every other node kind, and for unknown ids.
    pub fn window_answer(&self, id: &str) -> Option<WindowAnswer> {
        match self.slots[self.slot(id)?].op {
            Op::Sliding { window } => self.windows[window as usize].served.answer(),
            _ => None,
        }
    }

    /// Current verdict of an alert node.
    pub fn alert_state(&self, id: &str) -> Option<AlertState> {
        match self.slots[self.slot(id)?].op {
            Op::Alert { alert } => Some(self.alerts[alert as usize].state),
            _ => None,
        }
    }

    /// Total guarantee violations counted by [`QueryGraph::verify_tick`]
    /// (worst-case bounds, sliding-window answers and resolved alert
    /// verdicts).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Overall empirical coverage of the distributional intervals at the
    /// configured level: covered checks / total checks, across every value
    /// node and pane close. `None` before any check.
    pub fn coverage(&self) -> Option<f64> {
        let (cov, chk) = self
            .tallies
            .iter()
            .fold((0u64, 0u64), |(c, t), n| (c + n.covered, t + n.checked));
        (chk > 0).then(|| cov as f64 / chk as f64)
    }

    /// Per-node `(covered, checked)` distributional-coverage counts.
    pub fn node_coverage(&self, id: &str) -> Option<(u64, u64)> {
        let tally = &self.tallies[self.slot(id)?];
        Some((tally.covered, tally.checked))
    }

    /// Ticks × operators on which punctuation relaxed a grant above its
    /// static value — the feedback activity meter.
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// Largest served-bound / contract ratio observed across all contract
    /// nodes — ≤ 1 means every published answer honored its registered
    /// contract, punctuation or not.
    pub fn max_contract_ratio(&self) -> f64 {
        self.tallies.iter().fold(0.0, |a, n| a.max(n.max_ratio))
    }
}

/// What `Iterator::sum::<f64>()` starts from. The folds below start their
/// sums here too, so that an aggregate publishes the bits the
/// `Vec`-per-aggregate formulation (`tests/graph_proptests.rs`) sums to —
/// including the sign of an all-`-0.0` input.
const SUM_START: f64 = -0.0;

/// Where the in-place fold of an aggregate's member values starts …
fn fold_start(kind: AggKind) -> f64 {
    match kind {
        AggKind::Avg | AggKind::Sum => SUM_START,
        AggKind::Min => f64::INFINITY,
        AggKind::Max => f64::NEG_INFINITY,
    }
}

/// … and how it takes in the next member, in input order (AVG divides by
/// the member count once, at the end).
fn fold_step(kind: AggKind, acc: f64, x: f64) -> f64 {
    match kind {
        AggKind::Avg | AggKind::Sum => acc + x,
        AggKind::Min => acc.min(x),
        AggKind::Max => acc.max(x),
    }
}

/// Aggregate value/bound/variance arithmetic over the published outputs of
/// the slots `ins`, folded in input order; `None` when one of them has
/// published nothing yet. Value and bound follow
/// [`crate::answer_aggregate`]'s interval arithmetic exactly (AVG: mean of
/// bounds, SUM: sum, MIN/MAX: max); variance propagates as Σσ²/k² (AVG,
/// independent members), Σσ² (SUM), and max σ² (MIN/MAX — a heuristic, not
/// a true extreme-value quantile; experiment Q3's coverage gate is the
/// empirical check).
fn aggregate_outs(kind: AggKind, ins: &[u32], outs: &[Option<NodeOut>]) -> Option<NodeOut> {
    let sums = matches!(kind, AggKind::Avg | AggKind::Sum);
    let spread = if sums { SUM_START } else { 0.0 };
    let mut acc = NodeOut {
        value: fold_start(kind),
        bound: spread,
        variance: spread,
        staleness: 0,
    };
    for &j in ins {
        let m = outs[j as usize]?;
        acc.value = fold_step(kind, acc.value, m.value);
        if sums {
            acc.bound += m.bound;
            acc.variance += m.variance;
        } else {
            acc.bound = acc.bound.max(m.bound);
            acc.variance = acc.variance.max(m.variance);
        }
        acc.staleness = acc.staleness.max(m.staleness);
    }
    if kind == AggKind::Avg {
        let k = ins.len() as f64;
        acc.value /= k;
        acc.bound /= k;
        acc.variance /= k * k;
    }
    Some(acc)
}

/// The same aggregate arithmetic over the truth mirror's plain values;
/// `NaN` when an input's truth is unknown this tick.
fn aggregate_values(kind: AggKind, ins: &[u32], mirror: &[f64]) -> f64 {
    let mut acc = fold_start(kind);
    for &j in ins {
        let t = mirror[j as usize];
        if !t.is_finite() {
            return f64::NAN;
        }
        acc = fold_step(kind, acc, t);
    }
    if kind == AggKind::Avg {
        acc /= ins.len() as f64;
    }
    acc
}

/// Slides `truth` into the mirror (bound 0, so the mirror's answer *is* the
/// true window aggregate) and reports whether the served answer breaks its
/// guarantee against it. Out of line for the reason [`WindowAgg::push`] is.
#[inline(never)]
fn window_contradicts(served: &WindowAgg, mirror: &mut WindowAgg, truth: f64) -> bool {
    mirror.push(truth, 0.0);
    match (served.answer(), mirror.answer()) {
        (
            Some(WindowAnswer::Value { value, bound }),
            Some(WindowAnswer::Value { value: t, .. }),
        ) => violates((value - t).abs(), bound),
        // Mirror bound 0 ⇒ its lo == hi == true count.
        (Some(WindowAnswer::Count { lo, hi }), Some(WindowAnswer::Count { lo: t, .. })) => {
            !(lo..=hi).contains(&t)
        }
        _ => false,
    }
}

impl Instrument for QueryGraph {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("ticks", self.ticks);
        scope.counter("violations", self.violations);
        scope.counter("relaxations", self.relaxations);
        scope.counter("nodes", self.slots.len() as u64);
        if let Some(c) = self.coverage() {
            scope.gauge("coverage", c);
        }
        scope.gauge("max_contract_ratio", self.max_contract_ratio());
        let mut nodes = scope.scope("node");
        for (id, &slot) in self.ids.iter().zip(&self.slot_of) {
            let tally = &self.tallies[slot as usize];
            let mut s = nodes.scope(id);
            s.counter("violations", tally.violations);
            if tally.checked > 0 {
                s.gauge("coverage", tally.covered as f64 / tally.checked as f64);
            }
            match self.slots[slot as usize].op {
                Op::Tumbling { pane } => {
                    s.counter("panes_closed", self.panes[pane as usize].closed);
                }
                Op::Alert { alert } => {
                    s.counter("transitions", self.alerts[alert as usize].transitions);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(value: f64, delta: f64) -> StreamView {
        StreamView {
            value,
            delta,
            staleness: 0,
        }
    }

    fn two_tier_graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_raw("s1", StreamId(1)).unwrap();
        g.add_raw("s2", StreamId(2)).unwrap();
        g.add_aggregate("lo", AggKind::Avg, &["s0", "s1"], Some(0.5))
            .unwrap();
        g.add_aggregate("hi", AggKind::Avg, &["s2"], Some(0.5))
            .unwrap();
        g.add_aggregate("fleet", AggKind::Avg, &["lo", "hi"], Some(1.0))
            .unwrap();
        g
    }

    #[test]
    fn raw_and_derived_share_one_namespace() {
        // The satellite regression: a derived stream must not be able to
        // shadow a raw alias, nor the reverse.
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        assert_eq!(
            g.add_aggregate("s0", AggKind::Avg, &["s0"], None),
            Err(QueryError::DuplicateId { id: "s0".into() })
        );
        g.add_aggregate("d", AggKind::Avg, &["s0"], None).unwrap();
        assert_eq!(
            g.add_raw("d", StreamId(1)),
            Err(QueryError::DuplicateId { id: "d".into() })
        );
        // Failed registrations must not leak nodes.
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn unknown_inputs_are_typed_errors() {
        let mut g = QueryGraph::new();
        assert_eq!(
            g.add_aggregate("d", AggKind::Avg, &["nope"], None),
            Err(QueryError::UnknownNode { id: "nope".into() })
        );
        assert!(!g.contains("d"), "failed registration must not claim id");
    }

    #[test]
    fn self_reference_is_rejected_as_cycle() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        assert_eq!(
            g.add_aggregate("d", AggKind::Avg, &["s0", "d"], None),
            Err(QueryError::Cycle { id: "d".into() })
        );
        assert!(!g.contains("d"));
    }

    #[test]
    fn rewire_rejects_cycles_and_rolls_back() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_aggregate("a", AggKind::Avg, &["s0"], None).unwrap();
        g.add_aggregate("b", AggKind::Avg, &["a"], None).unwrap();
        // a ← b would close the loop a → b → a.
        assert!(matches!(
            g.rewire("a", &["b"]),
            Err(QueryError::Cycle { .. })
        ));
        // The graph still evaluates with the original wiring.
        g.observe_tick(&[view(2.0, 0.1)], &[0.0]);
        assert_eq!(g.answer("b").unwrap().value, 2.0);
        // A legal rewire works and re-evaluates correctly.
        g.add_raw("s1", StreamId(1)).unwrap();
        g.rewire("a", &["s0", "s1"]).unwrap();
        g.observe_tick(&[view(2.0, 0.1), view(4.0, 0.1)], &[0.0, 0.0]);
        assert_eq!(g.answer("a").unwrap().value, 3.0);
    }

    #[test]
    fn cycle_error_names_the_rewired_node_not_a_downstream_one() {
        let mut g = QueryGraph::new();
        g.add_raw("r", StreamId(0)).unwrap();
        for id in ["p", "q", "s"] {
            g.add_aggregate(id, AggKind::Avg, &["r"], None).unwrap();
        }
        // r → s → q → p: evaluation order is now the reverse of
        // registration order for the three aggregates.
        g.rewire("p", &["q"]).unwrap();
        g.rewire("q", &["s"]).unwrap();
        // s ← q closes s → q → s; p only hangs off the loop. The first
        // unplaced node in registration order is p, which is what the
        // sweep-until-stuck ordering used to report.
        assert_eq!(
            g.rewire("s", &["q"]),
            Err(QueryError::Cycle { id: "s".into() })
        );
        // Rolled back: the chain still evaluates end to end in one tick.
        g.observe_tick(&[view(7.0, 0.25)], &[0.0]);
        for id in ["s", "q", "p"] {
            let a = g.answer(id).unwrap();
            assert_eq!((a.value, a.bound), (7.0, 0.25), "{id}");
        }
        assert_eq!(g.verify_tick(&[7.0]), 0);
        assert_eq!(g.node_coverage("p"), Some((1, 1)));
    }

    #[test]
    fn sinks_cannot_feed_queries() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_alert("al", "s0", 1.0, 0.1).unwrap();
        g.add_tumbling_avg("pane", "s0", 4, 0.5).unwrap();
        g.add_sliding("win", "s0", WindowSpec::Avg { window: 4 }, 0.5)
            .unwrap();
        for sink in ["al", "pane", "win"] {
            assert!(matches!(
                g.add_aggregate("d", AggKind::Avg, &[sink], None),
                Err(QueryError::Invalid { .. })
            ));
        }
    }

    #[test]
    fn sliding_registration_validates_shape_bound_and_id() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_point("p0", "s0", 0.5).unwrap();
        let avg4 = WindowSpec::Avg { window: 4 };
        assert_eq!(
            g.add_sliding("p0", "s0", avg4, 0.5),
            Err(QueryError::DuplicateId { id: "p0".into() }),
            "uniqueness spans node kinds"
        );
        assert_eq!(
            g.add_alert("p0", "s0", 1.0, 0.1),
            Err(QueryError::DuplicateId { id: "p0".into() })
        );
        assert!(g
            .add_sliding("w", "s0", WindowSpec::Avg { window: 0 }, 0.5)
            .is_err());
        let nan_count = WindowSpec::CountAbove {
            window: 4,
            threshold: f64::NAN,
        };
        assert!(g.add_sliding("w", "s0", nan_count, 0.5).is_err());
        assert!(g.add_sliding("w", "s0", avg4, -1.0).is_err());
        assert!(g.add_sliding("w", "s0", avg4, f64::INFINITY).is_err());
        assert_eq!(
            g.add_sliding("w", "nope", avg4, 0.5),
            Err(QueryError::UnknownNode { id: "nope".into() })
        );
        assert_eq!(g.len(), 2, "failed registrations must not leak nodes");
        g.add_sliding("w", "s0", avg4, 0.5).unwrap();
    }

    #[test]
    #[should_panic(expected = "raw alias \"s1\" reads stream 1 but only 1 views")]
    fn observe_tick_rejects_an_unfed_raw_alias() {
        // At the parent commit this returned silently: s1, the aggregate and
        // the alert stayed unevaluated forever and `violations()` read 0.
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_raw("s1", StreamId(1)).unwrap();
        g.add_aggregate("avg", AggKind::Avg, &["s0", "s1"], Some(0.5))
            .unwrap();
        g.add_alert("al", "avg", 1.0, 0.1).unwrap();
        g.observe_tick(&[view(0.0, 0.1)], &[]);
    }

    #[test]
    #[should_panic(expected = "raw alias \"s1\" reads stream 1 but only 1 truths")]
    fn verify_tick_rejects_a_raw_alias_without_truth() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_raw("s1", StreamId(1)).unwrap();
        g.observe_tick(&[view(0.0, 0.1), view(0.0, 0.1)], &[]);
        g.verify_tick(&[0.0]);
    }

    #[test]
    fn dag_evaluates_aggregates_over_aggregates() {
        let mut g = two_tier_graph();
        g.observe_tick(
            &[view(1.0, 0.1), view(3.0, 0.3), view(10.0, 0.2)],
            &[0.04, 0.04, 0.09],
        );
        let lo = g.answer("lo").unwrap();
        assert_eq!(lo.value, 2.0);
        assert!((lo.bound - 0.2).abs() < 1e-15);
        let fleet = g.answer("fleet").unwrap();
        assert_eq!(fleet.value, 6.0);
        assert!((fleet.bound - (0.2 + 0.2) / 2.0).abs() < 1e-15);
        // Variance: lo = (0.04+0.04)/4 = 0.02; hi = 0.09;
        // fleet = (0.02+0.09)/4 = 0.0275.
        let d = g.distributional("fleet", 0.95).unwrap();
        assert!((d.stddev - 0.0275f64.sqrt()).abs() < 1e-12);
        assert!((d.interval - z_quantile(0.95) * d.stddev).abs() < 1e-12);
        assert_eq!(d.worst_case, fleet.bound);
    }

    #[test]
    fn static_required_deltas_match_flat_propagation() {
        let mut g = two_tier_graph();
        g.add_alert("al", "hi", 3.0, 0.05).unwrap();
        let req = g.required_deltas();
        // s0/s1: lo contract 0.5 (avg grant = contract), fleet grants 1.0
        // through lo — non-binding.
        assert_eq!(req[&StreamId(0)], 0.5);
        assert_eq!(req[&StreamId(1)], 0.5);
        // s2: min(hi contract 0.5, alert margin 0.05) = 0.05.
        assert_eq!(req[&StreamId(2)], 0.05);
        // Static propagation is tick-invariant.
        g.observe_tick(
            &[view(0.0, 0.5), view(0.0, 0.5), view(0.0, 0.05)],
            &[0.0; 3],
        );
        assert_eq!(g.required_deltas()[&StreamId(2)], 0.05);
        assert_eq!(g.relaxations(), 0);
    }

    #[test]
    fn sum_contract_splits_across_inputs() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_raw("s1", StreamId(1)).unwrap();
        g.add_aggregate("total", AggKind::Sum, &["s0", "s1"], Some(0.4))
            .unwrap();
        let req = g.required_deltas();
        assert!((req[&StreamId(0)] - 0.2).abs() < 1e-15);
        assert!((req[&StreamId(1)] - 0.2).abs() < 1e-15);
    }

    #[test]
    fn alert_far_from_threshold_relaxes_under_feedback() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_aggregate("hi", AggKind::Avg, &["s0"], Some(2.0))
            .unwrap();
        g.add_alert("al", "hi", 10.0, 0.05).unwrap();
        g.set_feedback(true);
        // Far below threshold: guaranteed distance ≈ 10.
        g.observe_tick(&[view(0.0, 0.05)], &[0.0]);
        let req = g.required_deltas();
        let relaxed = req[&StreamId(0)];
        assert!(
            relaxed > 0.05 * (1.0 + 1e-9),
            "expected relaxation, got {relaxed}"
        );
        // The hi contract still caps the grant.
        assert!(relaxed <= 2.0 + 1e-12);
        assert!(g.relaxations() > 0);
        // Near the threshold the static margin comes back.
        g.observe_tick(&[view(9.9, 0.05)], &[0.0]);
        assert_eq!(g.required_deltas()[&StreamId(0)], 0.05);
    }

    #[test]
    fn pane_budget_carries_forward_within_a_pane() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_tumbling_avg("pane", "s0", 32, 0.5).unwrap();
        // A second consumer forces much tighter deltas for a while.
        g.add_point("tight", "s0", 0.05).unwrap();
        g.set_feedback(true);
        for _ in 0..16 {
            g.observe_tick(&[view(0.0, 0.05)], &[0.0]);
            let req = g.required_deltas();
            // The point contract still binds the *stream* (tighten-min
            // across consumers)...
            assert!((req[&StreamId(0)] - 0.05).abs() < 1e-12);
        }
        // ...but the pane itself has been relaxing: only 0.05 of its 0.5
        // per-tick allowance is being spent, so the carried-forward budget
        // pushes its own grant above the contract.
        assert!(
            g.relaxations() > 0,
            "unspent pane budget should relax the pane grant"
        );
        // Static mode never relaxes under the same drive.
        let mut s = QueryGraph::new();
        s.add_raw("s0", StreamId(0)).unwrap();
        s.add_tumbling_avg("pane", "s0", 32, 0.5).unwrap();
        s.add_point("tight", "s0", 0.05).unwrap();
        for _ in 0..16 {
            s.observe_tick(&[view(0.0, 0.05)], &[0.0]);
            let req = s.required_deltas();
            assert!((req[&StreamId(0)] - 0.05).abs() < 1e-12);
        }
        assert_eq!(s.relaxations(), 0);
    }

    #[test]
    fn pane_close_answer_and_truth_mirror_agree() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_tumbling_avg("pane", "s0", 4, 0.5).unwrap();
        for t in 0..8 {
            let v = t as f64;
            g.observe_tick(&[view(v, 0.1)], &[0.01]);
            assert_eq!(g.verify_tick(&[v]), 0);
        }
        // Second pane: ticks 4..7, average 5.5, served == truth here.
        let a = g.answer("pane").unwrap();
        assert_eq!(a.value, 5.5);
        assert!((a.bound - 0.1).abs() < 1e-15);
        let (covered, checked) = g.node_coverage("pane").unwrap();
        assert_eq!(checked, 2);
        assert_eq!(covered, 2);
        assert!(g.max_contract_ratio() <= 1.0);
    }

    #[test]
    fn verify_counts_violations_and_coverage() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.observe_tick(&[view(1.0, 0.1)], &[0.0025]); // σ = 0.05
                                                      // Truth within bound and within 1.96σ.
        assert_eq!(g.verify_tick(&[1.05]), 0);
        assert_eq!(g.node_coverage("s0"), Some((1, 1)));
        // Truth outside the bound: a violation, and uncovered.
        assert_eq!(g.verify_tick(&[1.5]), 1);
        assert_eq!(g.violations(), 1);
        assert_eq!(g.node_coverage("s0"), Some((1, 2)));
    }

    #[test]
    fn alert_verdicts_checked_against_truth() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_alert("al", "s0", 1.0, 0.1).unwrap();
        // Served 2.0 ± 0.1 → Firing; truth 2.0 agrees.
        g.observe_tick(&[view(2.0, 0.1)], &[0.0]);
        assert_eq!(g.alert_state("al"), Some(AlertState::Firing));
        assert_eq!(g.verify_tick(&[2.0]), 0);
        // A firing verdict with truth below the threshold is a lie — this
        // can only happen if the served bound itself was violated, which
        // verify also counts (hence 2, not 1).
        g.observe_tick(&[view(2.0, 0.1)], &[0.0]);
        assert_eq!(g.verify_tick(&[0.5]), 2);
    }

    #[test]
    fn alert_states_resolve_and_flip() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_alert("a", "s0", 10.0, 0.5).unwrap();
        for (served, state) in [
            (12.0, AlertState::Firing),
            (10.2, AlertState::Uncertain),
            (8.0, AlertState::Quiet),
        ] {
            g.observe_tick(&[view(served, 0.5)], &[]);
            assert_eq!(g.alert_state("a"), Some(state));
        }
    }

    #[test]
    fn windowed_count_answers_as_interval() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        let spec = WindowSpec::CountAbove {
            window: 3,
            threshold: 0.0,
        };
        g.add_sliding("c", "s0", spec, 0.5).unwrap();
        assert_eq!(g.window_answer("c"), None);
        g.observe_tick(&[view(2.0, 0.5)], &[]); // certainly above
        g.observe_tick(&[view(-2.0, 0.5)], &[]); // certainly below
        g.observe_tick(&[view(0.2, 0.5)], &[]); // uncertain
        assert_eq!(
            g.window_answer("c"),
            Some(WindowAnswer::Count { lo: 1, hi: 2 })
        );
        assert_eq!(g.answer("c"), None, "windows answer as WindowAnswer only");
    }

    #[test]
    fn verify_catches_broken_window_guarantees() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_sliding("avg", "s0", WindowSpec::Avg { window: 2 }, 0.1)
            .unwrap();
        let count = WindowSpec::CountAbove {
            window: 2,
            threshold: 0.0,
        };
        g.add_sliding("cnt", "s0", count, 0.1).unwrap();
        // Honest tick: truth inside served ± δ, nothing counted.
        g.observe_tick(&[view(5.0, 0.1)], &[]);
        assert_eq!(g.verify_tick(&[5.05]), 0);
        // Truth far outside: the raw bound, the window average (4.5 off
        // with bound 0.1) and the count (certainly 2 above, truly 1) all
        // break — one violation each.
        g.observe_tick(&[view(5.0, 0.1)], &[]);
        assert_eq!(g.verify_tick(&[-4.0]), 3);
        assert_eq!(g.violations(), 3);
    }

    #[test]
    fn probit_matches_known_quantiles() {
        assert!((z_quantile(0.95) - 1.959964).abs() < 1e-4);
        assert!((z_quantile(0.99) - 2.575829).abs() < 1e-4);
        assert!((probit(0.5)).abs() < 1e-12);
        assert!((probit(0.975) + probit(0.025)).abs() < 1e-9);
        // Tail branch.
        assert!((probit(0.001) + 3.090232).abs() < 1e-3);
        assert!(probit(0.0).is_nan() && probit(1.0).is_nan());
    }

    #[test]
    fn distributional_answer_tightens_with_level() {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.observe_tick(&[view(1.0, 0.5)], &[0.01]);
        let d50 = g.distributional("s0", 0.50).unwrap();
        let d95 = g.distributional("s0", 0.95).unwrap();
        assert!(d50.interval < d95.interval);
        assert!((d50.stddev - 0.1).abs() < 1e-12);
        assert_eq!(d95.worst_case, 0.5);
    }
}
