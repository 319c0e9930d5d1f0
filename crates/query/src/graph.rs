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

#[derive(Debug)]
enum NodeKind {
    /// Alias for a raw stream: reads [`StreamView`]s pushed by the harness.
    Raw { stream: StreamId },
    /// AVG / SUM / MIN / MAX over value nodes (raw or derived), optionally
    /// carrying its own precision contract.
    Aggregate {
        kind: AggKind,
        inputs: Vec<usize>,
        contract: Option<f64>,
    },
    /// Tumbling-window average over one value node: accumulates `pane`
    /// ticks, publishes the pane average at close, then starts fresh. The
    /// pane's imprecision budget (`contract · pane`) is what the
    /// punctuation feedback carries forward within a pane.
    Tumbling {
        input: usize,
        pane: usize,
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
        panes_closed: u64,
    },
    /// Tri-state threshold alert over one value node.
    Alert {
        input: usize,
        threshold: f64,
        margin: f64,
        state: AlertState,
        transitions: u64,
    },
    /// Sliding-window aggregate over one value node: `served` slides over
    /// the input's `(value, bound)`, `mirror` over its ground truth with
    /// bound 0 — so the mirror's answer *is* the true window aggregate.
    /// Boxed so the window deques do not widen every node of the graph.
    Sliding {
        input: usize,
        contract: f64,
        served: Box<WindowAgg>,
        mirror: Box<WindowAgg>,
    },
}

#[derive(Debug)]
struct Node {
    id: String,
    kind: NodeKind,
    /// Latest published output (value nodes and closed panes; `None` for
    /// alerts and never-evaluated nodes).
    out: Option<NodeOut>,
    violations: u64,
    covered: u64,
    checked: u64,
    /// Largest served-bound / contract ratio observed (contract nodes).
    max_ratio: f64,
}

impl Node {
    fn inputs(&self) -> &[usize] {
        match &self.kind {
            NodeKind::Raw { .. } => &[],
            NodeKind::Aggregate { inputs, .. } => inputs,
            NodeKind::Tumbling { input, .. }
            | NodeKind::Alert { input, .. }
            | NodeKind::Sliding { input, .. } => std::slice::from_ref(input),
        }
    }

    fn is_value(&self) -> bool {
        matches!(self.kind, NodeKind::Raw { .. } | NodeKind::Aggregate { .. })
    }
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
#[derive(Debug)]
pub struct QueryGraph {
    nodes: Vec<Node>,
    by_id: HashMap<String, usize>,
    /// Evaluation order: every node after all of its inputs.
    topo: Vec<usize>,
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
            nodes: Vec::new(),
            by_id: HashMap::new(),
            topo: Vec::new(),
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
        self.nodes.len()
    }

    /// `true` when no node is registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rejects an id already taken in the single raw+derived namespace.
    fn check_fresh(&self, id: &str) -> Result<(), QueryError> {
        if self.by_id.contains_key(id) {
            return Err(QueryError::DuplicateId { id: id.to_string() });
        }
        Ok(())
    }

    /// Resolves input ids to node indices, insisting each is a *value* node
    /// (raw or aggregate — alerts, panes and windows are sinks).
    fn resolve_inputs(&self, of: &str, inputs: &[&str]) -> Result<Vec<usize>, QueryError> {
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
                let &idx = self
                    .by_id
                    .get(input)
                    .ok_or_else(|| QueryError::UnknownNode {
                        id: input.to_string(),
                    })?;
                if !self.nodes[idx].is_value() {
                    return Err(QueryError::Invalid {
                        reason: format!("input {input:?} of {of:?} is not a value node"),
                    });
                }
                Ok(idx)
            })
            .collect()
    }

    /// Appends a node under an id [`QueryGraph::check_fresh`] accepted.
    fn push_node(&mut self, id: &str, kind: NodeKind) {
        self.by_id.insert(id.to_string(), self.nodes.len());
        self.topo.push(self.nodes.len());
        self.nodes.push(Node {
            id: id.to_string(),
            kind,
            out: None,
            violations: 0,
            covered: 0,
            checked: 0,
            max_ratio: 0.0,
        });
    }

    /// Registers a derived node: fresh id, every input an existing value
    /// node, then whatever `kind` builds from the resolved inputs. A failed
    /// registration claims nothing.
    fn add_derived(
        &mut self,
        id: &str,
        inputs: &[&str],
        kind: impl FnOnce(Vec<usize>) -> NodeKind,
    ) -> Result<(), QueryError> {
        self.check_fresh(id)?;
        let inputs = self.resolve_inputs(id, inputs)?;
        self.push_node(id, kind(inputs));
        Ok(())
    }

    /// Registers a raw-stream alias: the graph-side name of `stream`.
    ///
    /// # Errors
    /// [`QueryError::DuplicateId`] when the id is taken — by *either* a raw
    /// alias or a derived stream; the namespace is shared.
    pub fn add_raw(&mut self, id: &str, stream: StreamId) -> Result<(), QueryError> {
        self.check_fresh(id)?;
        self.push_node(id, NodeKind::Raw { stream });
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
        self.add_derived(id, inputs, |inputs| NodeKind::Aggregate {
            kind,
            inputs,
            contract,
        })
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
        self.add_derived(id, &[input], |inputs| NodeKind::Tumbling {
            input: inputs[0],
            pane,
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
            panes_closed: 0,
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
        let served = Box::new(WindowAgg::build(spec)?);
        let mirror = served.clone();
        self.add_derived(id, &[input], |inputs| NodeKind::Sliding {
            input: inputs[0],
            contract,
            served,
            mirror,
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
        self.add_derived(id, &[input], |inputs| NodeKind::Alert {
            input: inputs[0],
            threshold,
            margin,
            state: AlertState::Uncertain,
            transitions: 0,
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
    /// not a value node, [`QueryError::Cycle`] when the new wiring is
    /// cyclic.
    pub fn rewire(&mut self, id: &str, inputs: &[&str]) -> Result<(), QueryError> {
        let &idx = self
            .by_id
            .get(id)
            .ok_or_else(|| QueryError::UnknownNode { id: id.to_string() })?;
        let resolved = self.resolve_inputs(id, inputs)?;
        let old = match &mut self.nodes[idx].kind {
            NodeKind::Aggregate { inputs, .. } => std::mem::replace(inputs, resolved),
            _ => {
                return Err(QueryError::Invalid {
                    reason: format!("only aggregate nodes can be rewired, {id:?} is not one"),
                })
            }
        };
        match self.recompute_topo() {
            Ok(topo) => {
                self.topo = topo;
                Ok(())
            }
            Err(e) => {
                if let NodeKind::Aggregate { inputs, .. } = &mut self.nodes[idx].kind {
                    *inputs = old;
                }
                Err(e)
            }
        }
    }

    /// Kahn's algorithm, deterministic (registration order among ready
    /// nodes). `Err` names a node on a cycle.
    fn recompute_topo(&self) -> Result<Vec<usize>, QueryError> {
        let n = self.nodes.len();
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let mut progressed = false;
            for i in 0..n {
                if !placed[i] && self.nodes[i].inputs().iter().all(|&j| placed[j]) {
                    placed[i] = true;
                    order.push(i);
                    progressed = true;
                }
            }
            if !progressed {
                let stuck = (0..n).find(|&i| !placed[i]).expect("cycle exists");
                return Err(QueryError::Cycle {
                    id: self.nodes[stuck].id.clone(),
                });
            }
        }
        Ok(order)
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
        let mut outs: Vec<Option<NodeOut>> = self.nodes.iter().map(|n| n.out).collect();
        for k in 0..self.topo.len() {
            let i = self.topo[k];
            let prev = outs[i];
            let node = &mut self.nodes[i];
            // Ratio of served bound to contract, recorded after the match
            // so the `node.kind` borrow has ended.
            let mut ratio = None;
            let new_out = match &mut node.kind {
                NodeKind::Raw { stream } => {
                    let Some(v) = views.get(stream.0) else {
                        unfed_alias(&node.id, *stream, views.len(), "views");
                    };
                    Some(NodeOut {
                        value: v.value,
                        bound: v.delta,
                        variance: variances.get(stream.0).copied().unwrap_or(0.0),
                        staleness: v.staleness,
                    })
                }
                NodeKind::Aggregate {
                    kind,
                    inputs,
                    contract,
                } => {
                    let member: Option<Vec<NodeOut>> = inputs.iter().map(|&j| outs[j]).collect();
                    match member {
                        Some(m) => {
                            let out = aggregate_outs(*kind, &m);
                            if let Some(c) = contract {
                                ratio = Some(out.bound / *c);
                            }
                            Some(out)
                        }
                        None => prev,
                    }
                }
                NodeKind::Tumbling {
                    input,
                    pane,
                    contract,
                    sum_value,
                    sum_bound,
                    sum_sigma,
                    max_staleness,
                    filled,
                    just_closed,
                    panes_closed,
                    ..
                } => {
                    if let Some(v) = outs[*input] {
                        *sum_value += v.value;
                        *sum_bound += v.bound;
                        *sum_sigma += v.variance.max(0.0).sqrt();
                        *max_staleness = (*max_staleness).max(v.staleness);
                        *filled += 1;
                        if *filled == *pane {
                            let w = *pane as f64;
                            let closed = NodeOut {
                                value: *sum_value / w,
                                bound: *sum_bound / w,
                                // Serial correlation across the pane's ticks
                                // breaks independence, so the pane variance
                                // is the conservative full-correlation
                                // bound ((Σσ)/W)².
                                variance: (*sum_sigma / w) * (*sum_sigma / w),
                                staleness: *max_staleness,
                            };
                            ratio = Some(closed.bound / *contract);
                            *sum_value = 0.0;
                            *sum_bound = 0.0;
                            *sum_sigma = 0.0;
                            *max_staleness = 0;
                            *filled = 0;
                            *just_closed = true;
                            *panes_closed += 1;
                            Some(closed)
                        } else {
                            prev // last closed pane stays published
                        }
                    } else {
                        prev
                    }
                }
                NodeKind::Alert {
                    input,
                    threshold,
                    state,
                    transitions,
                    ..
                } => {
                    if let Some(v) = outs[*input] {
                        let next = evaluate_threshold(
                            &Answer {
                                value: v.value,
                                bound: v.bound,
                                max_staleness: v.staleness,
                            },
                            *threshold,
                        );
                        if next != *state {
                            *transitions += 1;
                        }
                        *state = next;
                    }
                    // Alerts and sliding windows publish no `NodeOut`:
                    // theirs stays `None`, which keeps them out of
                    // `answer()`.
                    continue;
                }
                NodeKind::Sliding { input, served, .. } => {
                    if let Some(v) = outs[*input] {
                        served.push(v.value, v.bound);
                    }
                    continue;
                }
            };
            if let Some(r) = ratio {
                node.max_ratio = node.max_ratio.max(r);
            }
            node.out = new_out;
            outs[i] = new_out;
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
        let mut tv = vec![f64::NAN; self.nodes.len()];
        let outs: Vec<Option<NodeOut>> = self.nodes.iter().map(|n| n.out).collect();
        let z = self.z;
        let mut new_violations = 0u64;
        for k in 0..self.topo.len() {
            let i = self.topo[k];
            let node = &mut self.nodes[i];
            // Served-vs-truth pair to check, filled in by the match and
            // applied after it (so the `node.kind` borrow has ended).
            let mut check: Option<(NodeOut, f64)> = None;
            // An alert verdict or a window answer the truth contradicts.
            let mut broken = false;
            match &mut node.kind {
                NodeKind::Raw { stream } => {
                    let Some(&t) = truth.get(stream.0) else {
                        unfed_alias(&node.id, *stream, truth.len(), "truths");
                    };
                    tv[i] = t;
                }
                NodeKind::Aggregate { kind, inputs, .. } => {
                    let vals: Vec<f64> = inputs.iter().map(|&j| tv[j]).collect();
                    if vals.iter().all(|v| v.is_finite()) {
                        tv[i] = aggregate_values(*kind, &vals);
                    }
                }
                NodeKind::Tumbling {
                    input,
                    pane,
                    just_closed,
                    truth_sum,
                    truth_filled,
                    truth_closed,
                    ..
                } => {
                    let t_in = tv[*input];
                    if t_in.is_finite() {
                        *truth_sum += t_in;
                        *truth_filled += 1;
                        if *truth_filled == *pane {
                            *truth_closed = Some(*truth_sum / *pane as f64);
                            *truth_sum = 0.0;
                            *truth_filled = 0;
                        }
                    }
                    if *just_closed {
                        *just_closed = false;
                        if let (Some(out), Some(t)) = (outs[i], *truth_closed) {
                            check = Some((out, t));
                        }
                    }
                }
                NodeKind::Alert {
                    input,
                    threshold,
                    state,
                    ..
                } => {
                    let t_in = tv[*input];
                    if t_in.is_finite() {
                        broken = match state {
                            AlertState::Firing => t_in <= *threshold,
                            AlertState::Quiet => t_in > *threshold,
                            AlertState::Uncertain => false,
                        };
                    }
                }
                NodeKind::Sliding {
                    input,
                    served,
                    mirror,
                    ..
                } => {
                    let t_in = tv[*input];
                    if t_in.is_finite() {
                        broken = window_contradicts(served, mirror, t_in);
                    }
                }
            }
            if node.is_value() {
                if let (Some(out), t) = (outs[i], tv[i]) {
                    if t.is_finite() {
                        check = Some((out, t));
                    }
                }
            }
            if let Some((out, t)) = check {
                let err = (out.value - t).abs();
                if violates(err, out.bound) {
                    node.violations += 1;
                    new_violations += 1;
                }
                node.checked += 1;
                if !violates(err, z * out.variance.max(0.0).sqrt()) {
                    node.covered += 1;
                }
            }
            if broken {
                node.violations += 1;
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
        let n = self.nodes.len();
        let outs: Vec<Option<NodeOut>> = self.nodes.iter().map(|n| n.out).collect();
        let mut granted = vec![f64::INFINITY; n];
        let mut required: HashMap<StreamId, f64> = HashMap::new();
        let feedback = self.feedback;
        let mut relaxations = 0u64;
        for k in (0..self.topo.len()).rev() {
            let i = self.topo[k];
            let node = &mut self.nodes[i];
            match &mut node.kind {
                NodeKind::Raw { stream } => {
                    let g = granted[i];
                    if g.is_finite() {
                        required
                            .entry(*stream)
                            .and_modify(|d| *d = d.min(g))
                            .or_insert(g);
                    }
                }
                NodeKind::Aggregate {
                    kind,
                    inputs,
                    contract,
                } => {
                    let eff = contract.unwrap_or(f64::INFINITY).min(granted[i]);
                    if eff.is_finite() {
                        let per = match kind {
                            AggKind::Avg | AggKind::Min | AggKind::Max => eff,
                            AggKind::Sum => eff / inputs.len() as f64,
                        };
                        for &j in inputs.iter() {
                            granted[j] = granted[j].min(per);
                        }
                    }
                }
                NodeKind::Tumbling {
                    input,
                    pane,
                    contract,
                    sum_bound,
                    filled,
                    last_grant,
                    recent_grants,
                    ..
                } => {
                    let g = if feedback {
                        let budget = *contract * *pane as f64;
                        let remaining = *pane - *filled;
                        let max_recent = recent_grants.iter().fold(*last_grant, |a, &b| a.max(b));
                        let g = if remaining > GRANT_LAG {
                            // Unspent budget spread over the remaining
                            // ticks, minus GRANT_LAG ticks reserved at the
                            // recent grant level: even if every in-flight
                            // directive lands late, the pane-average bound
                            // stays ≤ contract.
                            (budget - *sum_bound - GRANT_LAG as f64 * max_recent)
                                / (remaining - GRANT_LAG) as f64
                        } else {
                            // Final lag window of the pane: no new decision
                            // can land in time, hold the last grant.
                            *last_grant
                        };
                        g.clamp(0.0, PANE_RELAX_CAP * *contract)
                    } else {
                        *contract
                    };
                    if g > *contract * (1.0 + 1e-9) {
                        relaxations += 1;
                    }
                    recent_grants.rotate_left(1);
                    recent_grants[GRANT_LAG - 1] = g;
                    *last_grant = g;
                    granted[*input] = granted[*input].min(g);
                }
                NodeKind::Alert {
                    input,
                    threshold,
                    margin,
                    ..
                } => {
                    let g = if feedback {
                        match outs[*input] {
                            Some(v) => {
                                let dist = (v.value - *threshold).abs() - v.bound;
                                if dist > ALERT_RELAX_AT * *margin {
                                    (dist / ALERT_RELAX_DIV).max(*margin)
                                } else {
                                    *margin
                                }
                            }
                            None => *margin,
                        }
                    } else {
                        *margin
                    };
                    if g > *margin * (1.0 + 1e-9) {
                        relaxations += 1;
                    }
                    granted[*input] = granted[*input].min(g);
                }
                NodeKind::Sliding {
                    input, contract, ..
                } => {
                    granted[*input] = granted[*input].min(*contract);
                }
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
        let node = &self.nodes[*self.by_id.get(id)?];
        node.out.map(|o| Answer {
            value: o.value,
            bound: o.bound,
            max_staleness: o.staleness,
        })
    }

    /// The latest answer of a value node with both uncertainty
    /// vocabularies: the worst-case δ bound and a calibrated `± z·σ`
    /// interval at two-sided coverage `level`.
    pub fn distributional(&self, id: &str, level: f64) -> Option<DistributionalAnswer> {
        let node = &self.nodes[*self.by_id.get(id)?];
        node.out.map(|o| {
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
        match &self.nodes[*self.by_id.get(id)?].kind {
            NodeKind::Sliding { served, .. } => served.answer(),
            _ => None,
        }
    }

    /// Current verdict of an alert node.
    pub fn alert_state(&self, id: &str) -> Option<AlertState> {
        match &self.nodes[*self.by_id.get(id)?].kind {
            NodeKind::Alert { state, .. } => Some(*state),
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
            .nodes
            .iter()
            .fold((0u64, 0u64), |(c, t), n| (c + n.covered, t + n.checked));
        (chk > 0).then(|| cov as f64 / chk as f64)
    }

    /// Per-node `(covered, checked)` distributional-coverage counts.
    pub fn node_coverage(&self, id: &str) -> Option<(u64, u64)> {
        let node = &self.nodes[*self.by_id.get(id)?];
        Some((node.covered, node.checked))
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
        self.nodes.iter().fold(0.0, |a, n| a.max(n.max_ratio))
    }
}

/// Aggregate value/bound/variance arithmetic over member outputs. Value and
/// bound follow [`crate::answer_aggregate`]'s interval arithmetic exactly
/// (AVG: mean of bounds, SUM: sum, MIN/MAX: max); variance propagates as
/// Σσ²/k² (AVG, independent members), Σσ² (SUM), and max σ² (MIN/MAX — a
/// heuristic, not a true extreme-value quantile; experiment Q3's coverage
/// gate is the empirical check).
fn aggregate_outs(kind: AggKind, member: &[NodeOut]) -> NodeOut {
    let k = member.len() as f64;
    let staleness = member.iter().map(|m| m.staleness).max().unwrap_or(0);
    let (value, bound, variance) = match kind {
        AggKind::Avg => (
            member.iter().map(|m| m.value).sum::<f64>() / k,
            member.iter().map(|m| m.bound).sum::<f64>() / k,
            member.iter().map(|m| m.variance).sum::<f64>() / (k * k),
        ),
        AggKind::Sum => (
            member.iter().map(|m| m.value).sum::<f64>(),
            member.iter().map(|m| m.bound).sum::<f64>(),
            member.iter().map(|m| m.variance).sum::<f64>(),
        ),
        AggKind::Min => (
            member.iter().map(|m| m.value).fold(f64::INFINITY, f64::min),
            member.iter().map(|m| m.bound).fold(0.0, f64::max),
            member.iter().map(|m| m.variance).fold(0.0, f64::max),
        ),
        AggKind::Max => (
            member
                .iter()
                .map(|m| m.value)
                .fold(f64::NEG_INFINITY, f64::max),
            member.iter().map(|m| m.bound).fold(0.0, f64::max),
            member.iter().map(|m| m.variance).fold(0.0, f64::max),
        ),
    };
    NodeOut {
        value,
        bound,
        variance,
        staleness,
    }
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

/// The same aggregate arithmetic over plain values (the truth mirror).
fn aggregate_values(kind: AggKind, vals: &[f64]) -> f64 {
    let k = vals.len() as f64;
    match kind {
        AggKind::Avg => vals.iter().sum::<f64>() / k,
        AggKind::Sum => vals.iter().sum::<f64>(),
        AggKind::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
        AggKind::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

impl Instrument for QueryGraph {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("ticks", self.ticks);
        scope.counter("violations", self.violations);
        scope.counter("relaxations", self.relaxations);
        scope.counter("nodes", self.nodes.len() as u64);
        if let Some(c) = self.coverage() {
            scope.gauge("coverage", c);
        }
        scope.gauge("max_contract_ratio", self.max_contract_ratio());
        let mut nodes = scope.scope("node");
        for n in &self.nodes {
            let mut s = nodes.scope(&n.id);
            s.counter("violations", n.violations);
            if n.checked > 0 {
                s.gauge("coverage", n.covered as f64 / n.checked as f64);
            }
            match &n.kind {
                NodeKind::Tumbling { panes_closed, .. } => {
                    s.counter("panes_closed", *panes_closed);
                }
                NodeKind::Alert { transitions, .. } => {
                    s.counter("transitions", *transitions);
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
