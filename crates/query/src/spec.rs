//! Query descriptions.

use std::fmt;

/// Identifier of a registered stream (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

/// Aggregate function of an [`AggregateQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Arithmetic mean of member streams.
    Avg,
    /// Sum of member streams.
    Sum,
    /// Minimum across member streams.
    Min,
    /// Maximum across member streams.
    Max,
}

/// A continuous point query: the current value of one stream, with the
/// precision bound `delta` the user requires of the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PointQuery {
    /// The queried stream.
    pub stream: StreamId,
    /// Required answer precision.
    pub delta: f64,
}

/// A continuous aggregate query over several scalar streams.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateQuery {
    /// The aggregate function.
    pub kind: AggKind,
    /// Member streams (at least one; duplicates allowed and counted).
    pub streams: Vec<StreamId>,
    /// Required precision of the aggregate answer.
    pub bound: f64,
}

impl AggregateQuery {
    /// Validates and builds an aggregate query.
    ///
    /// # Errors
    /// [`QueryError::Invalid`] on an empty member list or a non-positive
    /// bound.
    pub fn new(kind: AggKind, streams: Vec<StreamId>, bound: f64) -> Result<Self, QueryError> {
        if streams.is_empty() {
            return Err(QueryError::Invalid {
                reason: "aggregate needs at least one stream".into(),
            });
        }
        if !(bound > 0.0 && bound.is_finite()) {
            return Err(QueryError::Invalid {
                reason: format!("bound must be positive and finite, got {bound}"),
            });
        }
        Ok(AggregateQuery {
            kind,
            streams,
            bound,
        })
    }

    /// The total imprecision budget `Σ δᵢ` the member streams may spend
    /// while still meeting this query's bound (interval arithmetic):
    ///
    /// * AVG: `|avg err| ≤ (Σ δᵢ)/k` ⇒ budget `k · bound`.
    /// * SUM: `|sum err| ≤ Σ δᵢ`   ⇒ budget `bound`.
    /// * MIN/MAX: `|err| ≤ max δᵢ` ⇒ every stream gets `bound`; expressed as
    ///   a sum budget of `k · bound` **with the per-stream cap** enforced by
    ///   [`AggregateQuery::per_stream_cap`].
    pub fn imprecision_budget(&self) -> f64 {
        match self.kind {
            AggKind::Avg | AggKind::Min | AggKind::Max => self.bound * self.streams.len() as f64,
            AggKind::Sum => self.bound,
        }
    }

    /// Hard per-stream bound implied by the aggregate (only MIN/MAX have
    /// one; AVG/SUM trade freely inside the sum budget).
    pub fn per_stream_cap(&self) -> Option<f64> {
        match self.kind {
            AggKind::Min | AggKind::Max => Some(self.bound),
            AggKind::Avg | AggKind::Sum => None,
        }
    }
}

/// Errors from query construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query description is malformed.
    Invalid {
        /// Why.
        reason: String,
    },
    /// A referenced stream is not registered / has no view yet.
    UnknownStream(StreamId),
    /// A [`crate::QueryGraph`] node with this id is already registered. One
    /// namespace covers raw-stream aliases *and* derived streams, so a
    /// derived id can never shadow a raw id (or vice versa).
    DuplicateId {
        /// The colliding query id.
        id: String,
    },
    /// A referenced graph node id is not registered.
    UnknownNode {
        /// The missing node id.
        id: String,
    },
    /// Registering or rewiring this node would create a dependency cycle —
    /// the query graph must stay a DAG for topological evaluation to exist.
    Cycle {
        /// The node whose inputs close the cycle.
        id: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Invalid { reason } => write!(f, "invalid query: {reason}"),
            QueryError::UnknownStream(id) => write!(f, "unknown stream {}", id.0),
            QueryError::DuplicateId { id } => write!(f, "duplicate query id {id:?}"),
            QueryError::UnknownNode { id } => write!(f, "unknown graph node {id:?}"),
            QueryError::Cycle { id } => {
                write!(f, "inputs of {id:?} would create a dependency cycle")
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_validation() {
        assert!(AggregateQuery::new(AggKind::Avg, vec![], 1.0).is_err());
        assert!(AggregateQuery::new(AggKind::Avg, vec![StreamId(0)], 0.0).is_err());
        assert!(AggregateQuery::new(AggKind::Avg, vec![StreamId(0)], f64::NAN).is_err());
        assert!(AggregateQuery::new(AggKind::Avg, vec![StreamId(0)], 1.0).is_ok());
    }

    #[test]
    fn budgets_follow_interval_arithmetic() {
        let ids = vec![StreamId(0), StreamId(1), StreamId(2), StreamId(3)];
        let avg = AggregateQuery::new(AggKind::Avg, ids.clone(), 0.5).unwrap();
        assert_eq!(avg.imprecision_budget(), 2.0);
        assert_eq!(avg.per_stream_cap(), None);

        let sum = AggregateQuery::new(AggKind::Sum, ids.clone(), 0.5).unwrap();
        assert_eq!(sum.imprecision_budget(), 0.5);

        let min = AggregateQuery::new(AggKind::Min, ids, 0.5).unwrap();
        assert_eq!(min.per_stream_cap(), Some(0.5));
    }

    #[test]
    fn error_display() {
        assert!(QueryError::UnknownStream(StreamId(7))
            .to_string()
            .contains('7'));
        assert!(QueryError::Invalid { reason: "x".into() }
            .to_string()
            .contains("invalid"));
        assert!(QueryError::DuplicateId { id: "q1".into() }
            .to_string()
            .contains("q1"));
    }
}
