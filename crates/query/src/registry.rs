//! The continuous-query registry: live queries, stream views, and the
//! per-stream precision requirements they induce.

use std::collections::HashMap;

use kalstream_core::StreamDemand;

use crate::{
    answer_aggregate, answer_point, split_budget, split_budget_uniform, AggregateQuery, Answer,
    PointQuery, QueryError, StreamId,
};

/// The server's current picture of one stream: served value, precision
/// bound in force, and staleness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamView {
    /// Served (predicted) value.
    pub value: f64,
    /// Precision bound in force for this stream.
    pub delta: f64,
    /// Ticks since the last sync from the source.
    pub staleness: u64,
}

/// Holds registered queries and the latest stream views; computes the
/// per-stream bounds the query workload requires and answers all queries.
///
/// The flow each tick (driven by the experiment harness or application):
///
/// 1. push fresh [`StreamView`]s via [`QueryRegistry::update_view`];
/// 2. read answers via [`QueryRegistry::answer_point_queries`] /
///    [`QueryRegistry::answer_aggregates`];
/// 3. when the workload changes, recompute per-stream requirements via
///    [`QueryRegistry::required_deltas`] and push them to the sources
///    (`SourceEndpoint::set_delta`).
#[derive(Debug, Default)]
pub struct QueryRegistry {
    points: Vec<PointQuery>,
    aggregates: Vec<AggregateQuery>,
    views: HashMap<StreamId, StreamView>,
}

impl QueryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        QueryRegistry::default()
    }

    /// Registers a point query.
    pub fn add_point(&mut self, q: PointQuery) {
        self.points.push(q);
    }

    /// Registers an aggregate query.
    pub fn add_aggregate(&mut self, q: AggregateQuery) {
        self.aggregates.push(q);
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.points.len() + self.aggregates.len()
    }

    /// `true` when no query is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes the latest view of a stream.
    pub fn update_view(&mut self, id: StreamId, view: StreamView) {
        self.views.insert(id, view);
    }

    /// Computes the per-stream precision bound required to satisfy *every*
    /// registered query: the minimum over (a) point-query deltas and
    /// (b) each aggregate's budget split.
    ///
    /// `demands` optionally supplies measured rate curves per stream; when
    /// present, aggregate budgets are split cost-optimally
    /// ([`split_budget`]), otherwise uniformly.
    pub fn required_deltas(
        &self,
        demands: &HashMap<StreamId, StreamDemand>,
    ) -> HashMap<StreamId, f64> {
        let mut required: HashMap<StreamId, f64> = HashMap::new();
        let mut tighten = |id: StreamId, delta: f64| {
            required
                .entry(id)
                .and_modify(|d| *d = d.min(delta))
                .or_insert(delta);
        };
        for p in &self.points {
            tighten(p.stream, p.delta);
        }
        for a in &self.aggregates {
            let budget = a.imprecision_budget();
            let cap = a.per_stream_cap();
            let member_demands: Option<Vec<StreamDemand>> = a
                .streams
                .iter()
                .map(|id| demands.get(id).cloned())
                .collect();
            let split = match member_demands {
                Some(d) if !d.is_empty() => split_budget(&d, budget, cap),
                _ => split_budget_uniform(a.streams.len(), budget, cap),
            };
            for (id, delta) in a.streams.iter().zip(split.iter()) {
                tighten(*id, *delta);
            }
        }
        required
    }

    /// Answers all point queries, in registration order.
    ///
    /// # Errors
    /// [`QueryError::UnknownStream`] when a queried stream has no view yet.
    pub fn answer_point_queries(&self) -> Result<Vec<Answer>, QueryError> {
        self.points
            .iter()
            .map(|p| {
                self.views
                    .get(&p.stream)
                    .map(answer_point)
                    .ok_or(QueryError::UnknownStream(p.stream))
            })
            .collect()
    }

    /// Answers all aggregate queries, in registration order.
    ///
    /// # Errors
    /// [`QueryError::UnknownStream`] when a member stream has no view yet.
    pub fn answer_aggregates(&self) -> Result<Vec<Answer>, QueryError> {
        self.aggregates
            .iter()
            .map(|a| {
                let views: Result<Vec<_>, _> = a
                    .streams
                    .iter()
                    .map(|id| {
                        self.views
                            .get(id)
                            .copied()
                            .ok_or(QueryError::UnknownStream(*id))
                    })
                    .collect();
                answer_aggregate(a, &views?)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggKind;

    fn registry_with_queries() -> QueryRegistry {
        let mut r = QueryRegistry::new();
        r.add_point(PointQuery {
            stream: StreamId(0),
            delta: 0.5,
        });
        r.add_point(PointQuery {
            stream: StreamId(0),
            delta: 0.2,
        });
        r.add_aggregate(
            AggregateQuery::new(AggKind::Avg, vec![StreamId(0), StreamId(1)], 1.0).unwrap(),
        );
        r
    }

    #[test]
    fn required_deltas_take_tightest() {
        let r = registry_with_queries();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        let req = r.required_deltas(&HashMap::new());
        // Stream 0: min(0.5, 0.2, avg-split 1.0) = 0.2.
        assert_eq!(req[&StreamId(0)], 0.2);
        // Stream 1: only the avg split (uniform: budget 2.0 / 2 = 1.0).
        assert_eq!(req[&StreamId(1)], 1.0);
    }

    #[test]
    fn required_deltas_use_demand_curves_when_available() {
        let mut r = QueryRegistry::new();
        r.add_aggregate(
            AggregateQuery::new(AggKind::Avg, vec![StreamId(0), StreamId(1)], 1.0).unwrap(),
        );
        let mut demands = HashMap::new();
        // Stream 0 calm (tiny errors), stream 1 wild.
        demands.insert(
            StreamId(0),
            StreamDemand::new((1..=20).map(|i| 0.001 * i as f64).collect(), 1.0).unwrap(),
        );
        demands.insert(
            StreamId(1),
            StreamDemand::new((1..=20).map(|i| 0.4 * i as f64).collect(), 1.0).unwrap(),
        );
        let req = r.required_deltas(&demands);
        assert!(
            req[&StreamId(1)] > req[&StreamId(0)],
            "wild stream should get the looser bound: {req:?}"
        );
        // Budget respected.
        assert!(req[&StreamId(0)] + req[&StreamId(1)] <= 2.0 + 1e-9);
    }

    #[test]
    fn answers_require_views() {
        let mut r = registry_with_queries();
        assert!(matches!(
            r.answer_point_queries(),
            Err(QueryError::UnknownStream(StreamId(0)))
        ));
        r.update_view(
            StreamId(0),
            StreamView {
                value: 1.0,
                delta: 0.2,
                staleness: 0,
            },
        );
        r.update_view(
            StreamId(1),
            StreamView {
                value: 3.0,
                delta: 1.0,
                staleness: 4,
            },
        );
        let points = r.answer_point_queries().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].value, 1.0);
        let aggs = r.answer_aggregates().unwrap();
        assert_eq!(aggs.len(), 1);
        assert!((aggs[0].value - 2.0).abs() < 1e-12);
        assert_eq!(aggs[0].max_staleness, 4);
    }

    #[test]
    fn min_cap_tightens_members() {
        let mut r = QueryRegistry::new();
        r.add_aggregate(
            AggregateQuery::new(AggKind::Min, vec![StreamId(0), StreamId(1)], 0.3).unwrap(),
        );
        let req = r.required_deltas(&HashMap::new());
        assert!(req[&StreamId(0)] <= 0.3);
        assert!(req[&StreamId(1)] <= 0.3);
    }
}
