//! Property-based tests of the cascaded query graph.
//!
//! Two headline properties from the issue:
//!
//! 1. **Punctuation never breaks a contract.** Drive a feedback-enabled
//!    graph with adversarial served values (deviating from truth by exactly
//!    the delta in force, with the in-force delta lagging issued grants by
//!    a random transport lag) — verification must count zero violations and
//!    every contract node's served bound must stay within its contract.
//! 2. **A DAG with no feedback is the flat layer.** With feedback off, a
//!    graph of aggregates over raw aliases answers identically to
//!    hand-composed flat queries and derives the same per-stream deltas as
//!    [`QueryRegistry::required_deltas`]'s uniform split.
//! 3. **A sliding sink is the `window.rs` aggregator.** Its answer is
//!    bit-identical to a stand-alone aggregator fed the same served
//!    sequence, and it grants its input exactly its contract.
//! 4. **The flat engine is the naive one.** [`reference::Graph`] is the
//!    formulation `QueryGraph` used to run — a `Node` per query, a copy of
//!    every output per call, a `Vec` per aggregate — kept here as the
//!    oracle: on random DAGs of all five node kinds, through rewires and
//!    late registrations, every accessor agrees with it to the bit, every
//!    tick, feedback on and off.

use std::collections::{HashMap, VecDeque};

use kalstream_query::window::{SlidingAvg, SlidingCountAbove, SlidingExtremum};
use kalstream_query::{
    answer_aggregate, evaluate_threshold, z_quantile, AggKind, AggregateQuery, AlertState, Answer,
    PointQuery, QueryError, QueryGraph, QueryRegistry, StreamId, StreamView, WindowAnswer,
    WindowSpec,
};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestCaseResult};

/// Tiny deterministic generator (xorshift64*) so the adversarial drive is
/// reproducible from the proptest seed without extra dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in [-1, 1].
    fn signed(&mut self) -> f64 {
        self.unit() * 2.0 - 1.0
    }
    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn agg_kind(idx: usize) -> AggKind {
    match idx % 4 {
        0 => AggKind::Avg,
        1 => AggKind::Sum,
        2 => AggKind::Min,
        _ => AggKind::Max,
    }
}

/// The evaluation `QueryGraph` ran before its per-tick state went flat,
/// kept as the oracle for property 4: one `Node` per query walked through a
/// `topo` indirection, a fresh copy of every node's output per call, a
/// `Vec` of member outputs (or truths) per aggregate folded with
/// `Iterator::sum`, and a fresh `granted` array per `required_deltas`.
/// Registration is assumed valid (the generator only builds valid graphs);
/// `rewire` reports a cycle as `false` and leaves the wiring as it was.
mod reference {
    use super::*;

    const GRANT_LAG: usize = 2;
    const PANE_RELAX_CAP: f64 = 8.0;
    const ALERT_RELAX_AT: f64 = 4.0;
    const ALERT_RELAX_DIV: f64 = 4.0;

    fn violates(err: f64, bound: f64) -> bool {
        err > bound * (1.0 + 1e-9) + 1e-12
    }

    #[derive(Clone, Copy)]
    pub struct Out {
        pub value: f64,
        pub bound: f64,
        pub variance: f64,
        pub staleness: u64,
    }

    #[derive(Clone)]
    enum Window {
        Avg(SlidingAvg),
        Extremum(SlidingExtremum),
        Count(SlidingCountAbove),
    }

    impl Window {
        fn build(spec: WindowSpec) -> Self {
            match spec {
                WindowSpec::Avg { window } => Window::Avg(SlidingAvg::new(window)),
                WindowSpec::Min { window } => Window::Extremum(SlidingExtremum::min(window)),
                WindowSpec::Max { window } => Window::Extremum(SlidingExtremum::max(window)),
                WindowSpec::CountAbove { window, threshold } => {
                    Window::Count(SlidingCountAbove::new(window, threshold))
                }
            }
        }

        fn push(&mut self, value: f64, bound: f64) {
            match self {
                Window::Avg(w) => w.push(value, bound),
                Window::Extremum(w) => w.push(value, bound),
                Window::Count(w) => w.push(value, bound),
            }
        }

        fn answer(&self) -> Option<WindowAnswer> {
            match self {
                Window::Avg(w) => w
                    .answer()
                    .map(|(value, bound)| WindowAnswer::Value { value, bound }),
                Window::Extremum(w) => w
                    .answer()
                    .map(|(value, bound)| WindowAnswer::Value { value, bound }),
                Window::Count(w) => w.answer().map(|(lo, hi)| WindowAnswer::Count { lo, hi }),
            }
        }
    }

    enum Kind {
        Raw {
            stream: StreamId,
        },
        Aggregate {
            kind: AggKind,
            inputs: Vec<usize>,
            contract: Option<f64>,
        },
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
        },
        Alert {
            input: usize,
            threshold: f64,
            margin: f64,
            state: AlertState,
        },
        Sliding {
            input: usize,
            contract: f64,
            served: Window,
            mirror: Window,
        },
    }

    struct Node {
        id: String,
        kind: Kind,
        out: Option<Out>,
        violations: u64,
        covered: u64,
        checked: u64,
        max_ratio: f64,
    }

    impl Node {
        fn inputs(&self) -> &[usize] {
            match &self.kind {
                Kind::Raw { .. } => &[],
                Kind::Aggregate { inputs, .. } => inputs,
                Kind::Tumbling { input, .. }
                | Kind::Alert { input, .. }
                | Kind::Sliding { input, .. } => std::slice::from_ref(input),
            }
        }
    }

    pub struct Graph {
        nodes: Vec<Node>,
        topo: Vec<usize>,
        pub feedback: bool,
        z: f64,
        pub violations: u64,
        pub relaxations: u64,
        /// Pane closes seen by `observe_tick`, so a run can show it
        /// compared published panes and not only empty ones.
        pub panes_closed: u64,
    }

    impl Graph {
        pub fn new(feedback: bool, level: f64) -> Self {
            Graph {
                nodes: Vec::new(),
                topo: Vec::new(),
                feedback,
                z: z_quantile(level),
                violations: 0,
                relaxations: 0,
                panes_closed: 0,
            }
        }

        fn index(&self, id: &str) -> usize {
            self.nodes
                .iter()
                .position(|n| n.id == id)
                .expect("registered id")
        }

        fn push(&mut self, id: &str, kind: Kind) {
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

        pub fn add_raw(&mut self, id: &str, stream: StreamId) {
            self.push(id, Kind::Raw { stream });
        }

        pub fn add_aggregate(
            &mut self,
            id: &str,
            kind: AggKind,
            inputs: &[&str],
            contract: Option<f64>,
        ) {
            let inputs = inputs.iter().map(|i| self.index(i)).collect();
            self.push(
                id,
                Kind::Aggregate {
                    kind,
                    inputs,
                    contract,
                },
            );
        }

        pub fn add_tumbling_avg(&mut self, id: &str, input: &str, pane: usize, contract: f64) {
            let input = self.index(input);
            self.push(
                id,
                Kind::Tumbling {
                    input,
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
                },
            );
        }

        pub fn add_alert(&mut self, id: &str, input: &str, threshold: f64, margin: f64) {
            let input = self.index(input);
            self.push(
                id,
                Kind::Alert {
                    input,
                    threshold,
                    margin,
                    state: AlertState::Uncertain,
                },
            );
        }

        pub fn add_sliding(&mut self, id: &str, input: &str, spec: WindowSpec, contract: f64) {
            let input = self.index(input);
            let served = Window::build(spec);
            let mirror = served.clone();
            self.push(
                id,
                Kind::Sliding {
                    input,
                    contract,
                    served,
                    mirror,
                },
            );
        }

        /// Swaps in the new inputs and re-sorts by sweeping until every
        /// node is placed; a sweep that places nothing means a cycle.
        pub fn rewire(&mut self, id: &str, inputs: &[&str]) -> bool {
            let idx = self.index(id);
            let resolved: Vec<usize> = inputs.iter().map(|i| self.index(i)).collect();
            let Kind::Aggregate { inputs, .. } = &mut self.nodes[idx].kind else {
                panic!("only aggregates are rewired");
            };
            let old = std::mem::replace(inputs, resolved);
            let n = self.nodes.len();
            let mut placed = vec![false; n];
            let mut order = Vec::with_capacity(n);
            while order.len() < n {
                let before = order.len();
                for i in 0..n {
                    if !placed[i] && self.nodes[i].inputs().iter().all(|&j| placed[j]) {
                        placed[i] = true;
                        order.push(i);
                    }
                }
                if order.len() == before {
                    if let Kind::Aggregate { inputs, .. } = &mut self.nodes[idx].kind {
                        *inputs = old;
                    }
                    return false;
                }
            }
            self.topo = order;
            true
        }

        pub fn observe_tick(&mut self, views: &[StreamView], variances: &[f64]) {
            let mut outs: Vec<Option<Out>> = self.nodes.iter().map(|n| n.out).collect();
            for k in 0..self.topo.len() {
                let i = self.topo[k];
                let prev = outs[i];
                let node = &mut self.nodes[i];
                let mut ratio = None;
                let new_out = match &mut node.kind {
                    Kind::Raw { stream } => {
                        let v = views[stream.0];
                        Some(Out {
                            value: v.value,
                            bound: v.delta,
                            variance: variances.get(stream.0).copied().unwrap_or(0.0),
                            staleness: v.staleness,
                        })
                    }
                    Kind::Aggregate {
                        kind,
                        inputs,
                        contract,
                    } => {
                        let member: Option<Vec<Out>> = inputs.iter().map(|&j| outs[j]).collect();
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
                    Kind::Tumbling {
                        input,
                        pane,
                        contract,
                        sum_value,
                        sum_bound,
                        sum_sigma,
                        max_staleness,
                        filled,
                        just_closed,
                        ..
                    } => match outs[*input] {
                        Some(v) => {
                            *sum_value += v.value;
                            *sum_bound += v.bound;
                            *sum_sigma += v.variance.max(0.0).sqrt();
                            *max_staleness = (*max_staleness).max(v.staleness);
                            *filled += 1;
                            if *filled == *pane {
                                let w = *pane as f64;
                                let closed = Out {
                                    value: *sum_value / w,
                                    bound: *sum_bound / w,
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
                                self.panes_closed += 1;
                                Some(closed)
                            } else {
                                prev
                            }
                        }
                        None => prev,
                    },
                    Kind::Alert {
                        input,
                        threshold,
                        state,
                        ..
                    } => {
                        if let Some(v) = outs[*input] {
                            *state = evaluate_threshold(
                                &Answer {
                                    value: v.value,
                                    bound: v.bound,
                                    max_staleness: v.staleness,
                                },
                                *threshold,
                            );
                        }
                        continue;
                    }
                    Kind::Sliding { input, served, .. } => {
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

        pub fn verify_tick(&mut self, truth: &[f64]) -> u64 {
            let mut tv = vec![f64::NAN; self.nodes.len()];
            let outs: Vec<Option<Out>> = self.nodes.iter().map(|n| n.out).collect();
            let mut new_violations = 0u64;
            for k in 0..self.topo.len() {
                let i = self.topo[k];
                let node = &mut self.nodes[i];
                let mut check: Option<(Out, f64)> = None;
                let mut broken = false;
                let mut is_value = false;
                match &mut node.kind {
                    Kind::Raw { stream } => {
                        is_value = true;
                        tv[i] = truth[stream.0];
                    }
                    Kind::Aggregate { kind, inputs, .. } => {
                        is_value = true;
                        let vals: Vec<f64> = inputs.iter().map(|&j| tv[j]).collect();
                        if vals.iter().all(|v| v.is_finite()) {
                            tv[i] = aggregate_values(*kind, &vals);
                        }
                    }
                    Kind::Tumbling {
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
                    Kind::Alert {
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
                    Kind::Sliding {
                        input,
                        served,
                        mirror,
                        ..
                    } => {
                        let t_in = tv[*input];
                        if t_in.is_finite() {
                            mirror.push(t_in, 0.0);
                            broken = match (served.answer(), mirror.answer()) {
                                (
                                    Some(WindowAnswer::Value { value, bound }),
                                    Some(WindowAnswer::Value { value: t, .. }),
                                ) => violates((value - t).abs(), bound),
                                (
                                    Some(WindowAnswer::Count { lo, hi }),
                                    Some(WindowAnswer::Count { lo: t, .. }),
                                ) => !(lo..=hi).contains(&t),
                                _ => false,
                            };
                        }
                    }
                }
                if is_value {
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
                    if !violates(err, self.z * out.variance.max(0.0).sqrt()) {
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

        pub fn required_deltas(&mut self) -> HashMap<StreamId, f64> {
            let outs: Vec<Option<Out>> = self.nodes.iter().map(|n| n.out).collect();
            let mut granted = vec![f64::INFINITY; self.nodes.len()];
            let mut required: HashMap<StreamId, f64> = HashMap::new();
            let feedback = self.feedback;
            for k in (0..self.topo.len()).rev() {
                let i = self.topo[k];
                match &mut self.nodes[i].kind {
                    Kind::Raw { stream } => {
                        let g = granted[i];
                        if g.is_finite() {
                            required
                                .entry(*stream)
                                .and_modify(|d| *d = d.min(g))
                                .or_insert(g);
                        }
                    }
                    Kind::Aggregate {
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
                    Kind::Tumbling {
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
                            let max_recent =
                                recent_grants.iter().fold(*last_grant, |a, &b| a.max(b));
                            let g = if remaining > GRANT_LAG {
                                (budget - *sum_bound - GRANT_LAG as f64 * max_recent)
                                    / (remaining - GRANT_LAG) as f64
                            } else {
                                *last_grant
                            };
                            g.clamp(0.0, PANE_RELAX_CAP * *contract)
                        } else {
                            *contract
                        };
                        if g > *contract * (1.0 + 1e-9) {
                            self.relaxations += 1;
                        }
                        recent_grants.rotate_left(1);
                        recent_grants[GRANT_LAG - 1] = g;
                        *last_grant = g;
                        granted[*input] = granted[*input].min(g);
                    }
                    Kind::Alert {
                        input,
                        threshold,
                        margin,
                        ..
                    } => {
                        let g = match outs[*input] {
                            Some(v) if feedback => {
                                let dist = (v.value - *threshold).abs() - v.bound;
                                if dist > ALERT_RELAX_AT * *margin {
                                    (dist / ALERT_RELAX_DIV).max(*margin)
                                } else {
                                    *margin
                                }
                            }
                            _ => *margin,
                        };
                        if g > *margin * (1.0 + 1e-9) {
                            self.relaxations += 1;
                        }
                        granted[*input] = granted[*input].min(g);
                    }
                    Kind::Sliding {
                        input, contract, ..
                    } => {
                        granted[*input] = granted[*input].min(*contract);
                    }
                }
            }
            required
        }

        pub fn out(&self, id: &str) -> Option<Out> {
            self.nodes[self.index(id)].out
        }

        pub fn window_answer(&self, id: &str) -> Option<WindowAnswer> {
            match &self.nodes[self.index(id)].kind {
                Kind::Sliding { served, .. } => served.answer(),
                _ => None,
            }
        }

        pub fn alert_state(&self, id: &str) -> Option<AlertState> {
            match &self.nodes[self.index(id)].kind {
                Kind::Alert { state, .. } => Some(*state),
                _ => None,
            }
        }

        pub fn coverage(&self) -> Option<f64> {
            let (cov, chk) = self
                .nodes
                .iter()
                .fold((0u64, 0u64), |(c, t), n| (c + n.covered, t + n.checked));
            (chk > 0).then(|| cov as f64 / chk as f64)
        }

        pub fn node_coverage(&self, id: &str) -> (u64, u64) {
            let node = &self.nodes[self.index(id)];
            (node.covered, node.checked)
        }

        pub fn max_contract_ratio(&self) -> f64 {
            self.nodes.iter().fold(0.0, |a, n| a.max(n.max_ratio))
        }
    }

    fn aggregate_outs(kind: AggKind, member: &[Out]) -> Out {
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
        Out {
            value,
            bound,
            variance,
            staleness,
        }
    }

    fn aggregate_values(kind: AggKind, vals: &[f64]) -> f64 {
        let k = vals.len() as f64;
        match kind {
            AggKind::Avg => vals.iter().sum::<f64>() / k,
            AggKind::Sum => vals.iter().sum::<f64>(),
            AggKind::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
            AggKind::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// The flat engine and its naive oracle, registered and driven in lockstep.
struct Twin {
    engine: QueryGraph,
    oracle: reference::Graph,
    /// Every id, and the subsets the generator draws inputs and rewire
    /// targets from.
    ids: Vec<String>,
    values: Vec<String>,
    aggregates: Vec<String>,
}

/// Coverage level the twin's graphs account at, and the (different) level
/// its distributional answers are compared at.
const TWIN_LEVEL: f64 = 0.8;
const ASKED_LEVEL: f64 = 0.95;

impl Twin {
    fn new(feedback: bool) -> Self {
        let mut engine = QueryGraph::new();
        engine.set_feedback(feedback);
        engine.set_level(TWIN_LEVEL);
        Twin {
            engine,
            oracle: reference::Graph::new(feedback, TWIN_LEVEL),
            ids: Vec::new(),
            values: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    fn fresh_id(&mut self) -> String {
        let id = format!("n{}", self.ids.len());
        self.ids.push(id.clone());
        id
    }

    fn add_raw(&mut self, stream: StreamId) {
        let id = self.fresh_id();
        self.engine.add_raw(&id, stream).unwrap();
        self.oracle.add_raw(&id, stream);
        self.values.push(id);
    }

    /// 1–4 value nodes, repeats allowed (the engine does not forbid them).
    fn draw_inputs(&self, rng: &mut Rng) -> Vec<String> {
        (0..1 + rng.below(4))
            .map(|_| self.values[rng.below(self.values.len())].clone())
            .collect()
    }

    fn add_aggregate(&mut self, rng: &mut Rng) {
        let id = self.fresh_id();
        let inputs = self.draw_inputs(rng);
        let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let kind = agg_kind(rng.below(4));
        let contract = (rng.below(3) > 0).then(|| 0.2 + 1.3 * rng.unit());
        self.engine
            .add_aggregate(&id, kind, &inputs, contract)
            .unwrap();
        self.oracle.add_aggregate(&id, kind, &inputs, contract);
        self.values.push(id.clone());
        self.aggregates.push(id);
    }

    /// `far`: a threshold no walk reaches, so feedback relaxes every tick.
    fn add_alert(&mut self, rng: &mut Rng, far: bool) {
        let id = self.fresh_id();
        let input = self.values[rng.below(self.values.len())].clone();
        let threshold = if far { 1e3 } else { 2.0 * rng.signed() };
        let margin = 0.02 + 0.3 * rng.unit();
        self.engine
            .add_alert(&id, &input, threshold, margin)
            .unwrap();
        self.oracle.add_alert(&id, &input, threshold, margin);
    }

    fn add_tumbling(&mut self, rng: &mut Rng) {
        let id = self.fresh_id();
        let input = self.values[rng.below(self.values.len())].clone();
        let pane = 1 + rng.below(9);
        let contract = 0.1 + 0.5 * rng.unit();
        self.engine
            .add_tumbling_avg(&id, &input, pane, contract)
            .unwrap();
        self.oracle.add_tumbling_avg(&id, &input, pane, contract);
    }

    fn add_sliding(&mut self, rng: &mut Rng) {
        let id = self.fresh_id();
        let input = self.values[rng.below(self.values.len())].clone();
        let window = 1 + rng.below(8);
        let spec = match rng.below(4) {
            0 => WindowSpec::Avg { window },
            1 => WindowSpec::Min { window },
            2 => WindowSpec::Max { window },
            _ => WindowSpec::CountAbove {
                window,
                threshold: rng.signed(),
            },
        };
        let contract = 0.05 + rng.unit();
        self.engine
            .add_sliding(&id, &input, spec, contract)
            .unwrap();
        self.oracle.add_sliding(&id, &input, spec, contract);
    }

    fn add_derived(&mut self, rng: &mut Rng) {
        match rng.below(6) {
            0..=2 => self.add_aggregate(rng),
            3 => self.add_alert(rng, false),
            4 => self.add_tumbling(rng),
            _ => self.add_sliding(rng),
        }
    }

    /// Points a random aggregate at random value nodes — often later ones,
    /// which moves it in evaluation order; sometimes itself or its own
    /// consumers, which both sides must refuse and survive unchanged.
    /// Returns whether the rewire was adopted.
    fn rewire(&mut self, rng: &mut Rng) -> Result<bool, TestCaseError> {
        let id = self.aggregates[rng.below(self.aggregates.len())].clone();
        let inputs = self.draw_inputs(rng);
        let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let engine = self.engine.rewire(&id, &inputs);
        let adopted = self.oracle.rewire(&id, &inputs);
        let expected = if adopted {
            Ok(())
        } else {
            Err(QueryError::Cycle { id: id.clone() })
        };
        prop_assert_eq!(engine, expected, "rewire of {} to {:?}", id, inputs);
        Ok(adopted)
    }

    /// One tick through both sides; every return value and every accessor
    /// on every id must agree to the bit. Returns the grants.
    fn tick(
        &mut self,
        views: &[StreamView],
        variances: &[f64],
        truth: &[f64],
    ) -> Result<HashMap<StreamId, f64>, TestCaseError> {
        self.engine.observe_tick(views, variances);
        self.oracle.observe_tick(views, variances);
        prop_assert_eq!(
            self.engine.verify_tick(truth),
            self.oracle.verify_tick(truth)
        );
        let bits = |m: &HashMap<StreamId, f64>| -> Vec<(StreamId, u64)> {
            let mut v: Vec<_> = m.iter().map(|(&s, d)| (s, d.to_bits())).collect();
            v.sort();
            v
        };
        let grants = self.engine.required_deltas();
        let (engine, oracle) = (bits(&grants), bits(&self.oracle.required_deltas()));
        prop_assert!(engine == oracle, "grants {:?} vs {:?}", engine, oracle);
        self.compare()?;
        Ok(grants)
    }

    fn compare(&self) -> TestCaseResult {
        let (e, o) = (&self.engine, &self.oracle);
        prop_assert_eq!(e.violations(), o.violations);
        prop_assert_eq!(e.relaxations(), o.relaxations);
        prop_assert_eq!(
            e.coverage().map(f64::to_bits),
            o.coverage().map(f64::to_bits)
        );
        prop_assert_eq!(
            e.max_contract_ratio().to_bits(),
            o.max_contract_ratio().to_bits()
        );
        let z = z_quantile(ASKED_LEVEL);
        for id in &self.ids {
            let out = o.out(id);
            let answer = e
                .answer(id)
                .map(|a| (a.value.to_bits(), a.bound.to_bits(), a.max_staleness));
            let expected = out.map(|o| (o.value.to_bits(), o.bound.to_bits(), o.staleness));
            prop_assert!(answer == expected, "{}: {:?} vs {:?}", id, answer, expected);
            let dist = e.distributional(id, ASKED_LEVEL);
            prop_assert!(dist.is_none_or(|d| d.level == ASKED_LEVEL));
            let dist =
                dist.map(|d| [d.value, d.stddev, d.interval, d.worst_case].map(f64::to_bits));
            let expected = out.map(|o| {
                let stddev = o.variance.max(0.0).sqrt();
                [o.value, stddev, z * stddev, o.bound].map(f64::to_bits)
            });
            prop_assert!(dist == expected, "{}: distributional", id);
            prop_assert_eq!(e.alert_state(id), o.alert_state(id), "{}: verdict", id);
            let window = |a: Option<WindowAnswer>| {
                a.map(|a| match a {
                    WindowAnswer::Value { value, bound } => (value.to_bits(), bound.to_bits()),
                    WindowAnswer::Count { lo, hi } => (lo, hi),
                })
            };
            prop_assert_eq!(
                window(e.window_answer(id)),
                window(o.window_answer(id)),
                "{}: window",
                id
            );
            prop_assert_eq!(
                e.node_coverage(id),
                Some(o.node_coverage(id)),
                "{}: coverage",
                id
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: with punctuation feedback on, grants lagging by a random
    /// transport delay, and served values adversarially placed anywhere
    /// inside the in-force bound, no answer ever violates its worst-case
    /// bound, no resolved alert verdict lies, and every contract node
    /// (aggregates and the tumbling pane) keeps its served bound within
    /// its registered contract.
    #[test]
    fn punctuation_relaxed_deltas_never_violate_contracts(
        seed in any::<u64>(),
        pane in 4usize..24,
        margin in 0.02f64..0.3,
        agg_contract in 0.2f64..1.0,
        pane_contract in 0.1f64..0.6,
        threshold in -1.0f64..1.0,
        lag in 1usize..3,
        ticks in 50usize..220,
    ) {
        let mut g = QueryGraph::new();
        for s in 0..4usize {
            g.add_raw(&format!("s{s}"), StreamId(s)).unwrap();
        }
        g.add_aggregate("avg_a", AggKind::Avg, &["s0", "s1"], Some(agg_contract)).unwrap();
        g.add_aggregate("avg_b", AggKind::Avg, &["s2", "s3"], Some(agg_contract)).unwrap();
        g.add_aggregate("fleet", AggKind::Avg, &["avg_a", "avg_b"], Some(2.0 * agg_contract))
            .unwrap();
        g.add_tumbling_avg("pane", "avg_a", pane, pane_contract).unwrap();
        g.add_alert("al", "avg_b", threshold, margin).unwrap();
        g.set_feedback(true);

        // Static grants seed the in-force deltas (what PR 5 would run).
        let mut s_twin = QueryGraph::new();
        for s in 0..4usize {
            s_twin.add_raw(&format!("s{s}"), StreamId(s)).unwrap();
        }
        s_twin.add_aggregate("avg_a", AggKind::Avg, &["s0", "s1"], Some(agg_contract)).unwrap();
        s_twin.add_aggregate("avg_b", AggKind::Avg, &["s2", "s3"], Some(agg_contract)).unwrap();
        s_twin
            .add_aggregate("fleet", AggKind::Avg, &["avg_a", "avg_b"], Some(2.0 * agg_contract))
            .unwrap();
        s_twin.add_tumbling_avg("pane", "avg_a", pane, pane_contract).unwrap();
        s_twin.add_alert("al", "avg_b", threshold, margin).unwrap();
        let static_req = s_twin.required_deltas();

        let mut rng = Rng::new(seed);
        let mut truth = [0.0f64; 4];
        // Issued-grant history per stream; the delta in force at tick t is
        // the grant issued `lag` calls ago (transport + shadow-filter lag).
        let mut history: Vec<VecDeque<f64>> = (0..4)
            .map(|s| {
                let d = static_req[&StreamId(s)];
                VecDeque::from(vec![d; lag])
            })
            .collect();
        for _ in 0..ticks {
            let mut views = [StreamView { value: 0.0, delta: 0.0, staleness: 0 }; 4];
            for s in 0..4 {
                truth[s] += 0.08 * rng.signed();
                let in_force = history[s][0];
                // Adversarial: served value anywhere inside truth ± δ.
                views[s] = StreamView {
                    value: truth[s] + in_force * rng.signed(),
                    delta: in_force,
                    staleness: 0,
                };
            }
            g.observe_tick(&views, &[0.0; 4]);
            prop_assert_eq!(g.verify_tick(&truth), 0, "no served guarantee may break");
            let req = g.required_deltas();
            for s in 0..4 {
                history[s].pop_front();
                history[s].push_back(req[&StreamId(s)]);
            }
        }
        prop_assert!(
            g.max_contract_ratio() <= 1.0 + 1e-9,
            "a contract node exceeded its contract: ratio {}",
            g.max_contract_ratio()
        );
    }

    /// Property 2a: with feedback off, graph aggregates over raw aliases
    /// answer bit-identically to the flat `answer_aggregate` path, and a
    /// second-tier aggregate matches the hand-composed arithmetic over the
    /// first tier's answers.
    #[test]
    fn dag_without_feedback_equals_hand_composed_flat_queries(
        values in prop::collection::vec(-100.0f64..100.0, 2..8),
        deltas in prop::collection::vec(0.01f64..2.0, 8),
        kind_a in 0usize..4,
        kind_b in 0usize..4,
    ) {
        let n = values.len();
        let views: Vec<StreamView> = values
            .iter()
            .zip(deltas.iter())
            .map(|(&value, &delta)| StreamView { value, delta, staleness: 0 })
            .collect();
        let split = n / 2 + 1;
        let ids: Vec<String> = (0..n).map(|s| format!("s{s}")).collect();

        let mut g = QueryGraph::new();
        for (s, id) in ids.iter().enumerate() {
            g.add_raw(id, StreamId(s)).unwrap();
        }
        let lo_refs: Vec<&str> = ids[..split].iter().map(String::as_str).collect();
        let hi_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        g.add_aggregate("lo", agg_kind(kind_a), &lo_refs, Some(1.0)).unwrap();
        g.add_aggregate("all", agg_kind(kind_b), &hi_refs, Some(1.0)).unwrap();
        g.observe_tick(&views, &vec![0.0; n]);

        // Tier 1: bit-identical to the flat evaluator.
        for (gid, members) in [("lo", &views[..split]), ("all", &views[..])] {
            let flat_query = AggregateQuery::new(
                agg_kind(if gid == "lo" { kind_a } else { kind_b }),
                (0..members.len()).map(StreamId).collect(),
                1.0,
            )
            .unwrap();
            let flat = answer_aggregate(&flat_query, members).unwrap();
            let dag = g.answer(gid).unwrap();
            prop_assert_eq!(dag.value.to_bits(), flat.value.to_bits());
            prop_assert_eq!(dag.bound.to_bits(), flat.bound.to_bits());
        }
    }

    /// Property 2b: with feedback off, per-stream required deltas from the
    /// graph equal the flat registry's uniform split for the same workload
    /// (point queries + one aggregate), up to float-division noise.
    #[test]
    fn dag_static_required_deltas_match_flat_registry(
        n in 2usize..8,
        kind in 0usize..4,
        bound in 0.05f64..2.0,
        point_delta in 0.01f64..1.0,
    ) {
        let ids: Vec<String> = (0..n).map(|s| format!("s{s}")).collect();
        let mut g = QueryGraph::new();
        for (s, id) in ids.iter().enumerate() {
            g.add_raw(id, StreamId(s)).unwrap();
        }
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        g.add_aggregate("agg", agg_kind(kind), &refs, Some(bound)).unwrap();
        g.add_point("p0", "s0", point_delta).unwrap();
        let dag_req = g.required_deltas();

        let mut flat = QueryRegistry::new();
        flat.add_aggregate(
            AggregateQuery::new(agg_kind(kind), (0..n).map(StreamId).collect(), bound).unwrap(),
        );
        flat.add_point(PointQuery { stream: StreamId(0), delta: point_delta });
        let flat_req = flat.required_deltas(&HashMap::new());

        for s in 0..n {
            let d = dag_req[&StreamId(s)];
            let f = flat_req[&StreamId(s)];
            prop_assert!(
                (d - f).abs() <= 1e-9 * f.max(1.0),
                "stream {}: dag {} vs flat {}",
                s, d, f
            );
        }
    }

    /// Property 3: a sliding node over a raw alias answers bit-identically
    /// to the stand-alone `window.rs` aggregator of its shape fed the same
    /// served `(value, bound)` sequence, tick by tick, and the static
    /// propagation grants its input exactly its contract.
    #[test]
    fn sliding_node_is_the_standalone_window_aggregator(
        shape in 0usize..4,
        window in 1usize..12,
        threshold in -5.0f64..5.0,
        contract in 0.05f64..1.0,
        served in prop::collection::vec((-10.0f64..10.0, 0.0f64..1.0), 1..60),
    ) {
        let spec = match shape {
            0 => WindowSpec::Avg { window },
            1 => WindowSpec::Min { window },
            2 => WindowSpec::Max { window },
            _ => WindowSpec::CountAbove { window, threshold },
        };
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_sliding("w", "s0", spec, contract).unwrap();
        prop_assert_eq!(g.required_deltas()[&StreamId(0)].to_bits(), contract.to_bits());

        let mut avg = SlidingAvg::new(window);
        let mut ext = match spec {
            WindowSpec::Min { .. } => SlidingExtremum::min(window),
            _ => SlidingExtremum::max(window),
        };
        let mut count = SlidingCountAbove::new(window, threshold);
        for &(value, delta) in &served {
            g.observe_tick(&[StreamView { value, delta, staleness: 0 }], &[]);
            avg.push(value, delta);
            ext.push(value, delta);
            count.push(value, delta);
            let alone = match spec {
                WindowSpec::Avg { .. } => avg.answer().map(|(v, b)| (v.to_bits(), b.to_bits())),
                WindowSpec::Min { .. } | WindowSpec::Max { .. } => {
                    ext.answer().map(|(v, b)| (v.to_bits(), b.to_bits()))
                }
                WindowSpec::CountAbove { .. } => count.answer(),
            };
            let node = g.window_answer("w").map(|a| match a {
                WindowAnswer::Value { value, bound } => (value.to_bits(), bound.to_bits()),
                WindowAnswer::Count { lo, hi } => (lo, hi),
            });
            prop_assert_eq!(node, alone);
        }
        prop_assert_eq!(g.required_deltas()[&StreamId(0)].to_bits(), contract.to_bits());
    }

    /// Property 4: on a random DAG using all five node kinds — raw aliases
    /// sharing streams, aggregates over aggregates, alerts, panes, windows
    /// — with rewires (adopted and refused) and late registrations mid-run,
    /// truths sometimes unknown and served values sometimes outside their
    /// bound, the flat engine and the naive reference agree on every
    /// return value and accessor, to the bit, every tick.
    #[test]
    fn flat_engine_matches_the_naive_reference_bit_for_bit(
        seed in any::<u64>(),
        feedback in 0usize..2,
        raws in 2usize..7,
        derived in 4usize..28,
        ticks in 40usize..120,
    ) {
        let feedback = feedback == 1;
        let mut rng = Rng::new(seed);
        let streams = 1 + rng.below(raws);
        let mut twin = Twin::new(feedback);
        for r in 0..raws {
            twin.add_raw(StreamId(r % streams));
        }
        // One of each kind for certain, then whatever the seed draws.
        twin.add_aggregate(&mut rng);
        twin.add_alert(&mut rng, true);
        twin.add_tumbling(&mut rng);
        twin.add_sliding(&mut rng);
        for _ in 0..derived {
            twin.add_derived(&mut rng);
        }

        let mut truth = vec![0.0f64; streams];
        let mut in_force = vec![0.3f64; streams];
        let mut rewires = 0u32;
        for t in 0..ticks {
            if t > 0 && t % (ticks / 4) == 0 {
                for _ in 0..4 {
                    rewires += u32::from(twin.rewire(&mut rng)?);
                }
                // A registration after a re-layout appends to the new order.
                twin.add_derived(&mut rng);
                twin.compare()?;
            }
            let mut views = Vec::with_capacity(streams);
            let mut shown = Vec::with_capacity(streams);
            for s in 0..streams {
                truth[s] += 0.1 * rng.signed();
                views.push(StreamView {
                    // One served value in six breaks its bound.
                    value: truth[s] + 1.2 * in_force[s] * rng.signed(),
                    delta: in_force[s],
                    staleness: rng.below(4) as u64,
                });
                shown.push(if rng.below(16) == 0 { f64::NAN } else { truth[s] });
            }
            let variances: Vec<f64> = (0..streams - rng.below(2))
                .map(|_| 0.02 * rng.unit())
                .collect();
            let grants = twin.tick(&views, &variances, &shown)?;
            for (s, d) in in_force.iter_mut().enumerate() {
                *d = grants.get(&StreamId(s)).copied().unwrap_or(0.3);
            }
        }
        // The comparison was not vacuous.
        prop_assert!(twin.oracle.panes_closed > 0, "no pane ever closed");
        prop_assert!(twin.oracle.violations > 0, "no guarantee was ever broken");
        prop_assert!(rewires > 0, "no rewire was ever adopted");
        prop_assert_eq!(twin.oracle.relaxations > 0, feedback);
    }
}

/// `Iterator::sum::<f64>()` starts from `-0.0`, so an aggregate over
/// all-negative-zero inputs sums to `-0.0`; a fold started at `0.0` would
/// publish `+0.0`. Random walks never produce the case, so it is pinned.
#[test]
fn in_place_fold_starts_where_iterator_sum_starts() {
    for kind in [AggKind::Avg, AggKind::Sum] {
        let mut twin = Twin::new(false);
        twin.add_raw(StreamId(0));
        twin.add_raw(StreamId(1));
        twin.engine
            .add_aggregate("agg", kind, &["n0", "n1"], None)
            .unwrap();
        twin.oracle.add_aggregate("agg", kind, &["n0", "n1"], None);
        twin.ids.push("agg".into());
        let views = [StreamView {
            value: -0.0,
            delta: 0.0,
            staleness: 0,
        }; 2];
        twin.tick(&views, &[0.0; 2], &[-0.0; 2]).unwrap();
        let served = twin.engine.answer("agg").unwrap().value;
        assert!(served == 0.0 && served.is_sign_negative(), "{kind:?}");
    }
}
