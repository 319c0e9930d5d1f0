//! Session construction: installing the dynamic procedure at both ends.

use kalstream_filter::{
    models, AdaptiveConfig, AdaptiveKalmanFilter, BankConfig, KalmanFilter, ModelBank, StateModel,
};
use kalstream_linalg::Vector;

use crate::{CoreError, Estimator, ProtocolConfig, Result, ServerEndpoint, SourceEndpoint};

/// Declarative description of one protocol session: which estimator runs at
/// the source, and the protocol contract. Building the spec yields a matched
/// [`SourceEndpoint`]/[`ServerEndpoint`] pair whose filters start
/// bit-identical — the protocol's core invariant.
pub struct SessionSpec {
    estimator: Estimator,
    config: ProtocolConfig,
}

impl SessionSpec {
    /// A fixed-model session.
    ///
    /// # Errors
    /// Propagates filter-construction errors (shape mismatches).
    pub fn fixed(model: StateModel, x0: Vector, p0: f64, config: ProtocolConfig) -> Result<Self> {
        let kf = KalmanFilter::new(model, x0, p0)?;
        Ok(SessionSpec {
            estimator: Estimator::Fixed(kf),
            config,
        })
    }

    /// A session whose source adapts `Q`/`R` online.
    ///
    /// # Errors
    /// [`CoreError::BadConfig`] when `adapt.window` is zero (an adaptive
    /// session that can never adapt is a mis-configured [`SessionSpec::fixed`]);
    /// otherwise propagates filter-construction errors.
    pub fn adaptive(
        model: StateModel,
        x0: Vector,
        p0: f64,
        adapt: AdaptiveConfig,
        config: ProtocolConfig,
    ) -> Result<Self> {
        if adapt.window == 0 {
            return Err(CoreError::BadConfig {
                what: "adaptive window",
                reason: "must hold at least 1 update".into(),
            });
        }
        let kf = KalmanFilter::new(model, x0, p0)?;
        Ok(SessionSpec {
            estimator: Estimator::Adaptive(AdaptiveKalmanFilter::new(kf, adapt)),
            config,
        })
    }

    /// A session whose source runs a model bank.
    ///
    /// # Errors
    /// Propagates bank-construction errors (empty bank, mixed dims).
    pub fn bank(
        filters: Vec<KalmanFilter>,
        bank: BankConfig,
        config: ProtocolConfig,
    ) -> Result<Self> {
        Ok(SessionSpec {
            estimator: Estimator::Bank(ModelBank::new(filters, bank)?),
            config,
        })
    }

    /// The default scalar session the system installs when it knows nothing
    /// about a stream: an adaptive random-walk filter starting at `x0`.
    ///
    /// # Errors
    /// Propagates construction errors (none expected for valid `config`).
    pub fn default_scalar(x0: f64, config: ProtocolConfig) -> Result<Self> {
        SessionSpec::adaptive(
            models::random_walk(0.01, 0.01),
            Vector::from_slice(&[x0]),
            1.0,
            AdaptiveConfig::default(),
            config,
        )
    }

    /// A scalar model bank covering the standard stream families
    /// (walk / velocity / acceleration), each with adaptive-friendly priors.
    ///
    /// # Errors
    /// Propagates construction errors (none expected).
    pub fn standard_bank(x0: f64, r: f64, config: ProtocolConfig) -> Result<Self> {
        let walk = KalmanFilter::new(models::random_walk(0.05, r), Vector::from_slice(&[x0]), 1.0)?;
        let cv = KalmanFilter::new(
            models::constant_velocity(1.0, 0.05, r),
            Vector::from_slice(&[x0, 0.0]),
            1.0,
        )?;
        let ca = KalmanFilter::new(
            models::constant_acceleration(1.0, 0.01, r),
            Vector::from_slice(&[x0, 0.0, 0.0]),
            1.0,
        )?;
        SessionSpec::bank(vec![walk, cv, ca], BankConfig::default(), config)
    }

    /// Builds the matched endpoint pair.
    pub fn build(self) -> StreamSession {
        let server_filter = self.estimator.active().clone();
        let source = SourceEndpoint::new(self.estimator, server_filter.clone(), self.config);
        let server = ServerEndpoint::new(server_filter);
        StreamSession { source, server }
    }
}

/// A matched source/server pair for one stream.
pub struct StreamSession {
    /// The source endpoint (plugs into the simulator as the producer).
    pub source: SourceEndpoint,
    /// The server endpoint (plugs into the simulator as the consumer).
    pub server: ServerEndpoint,
}

impl StreamSession {
    /// Splits into the two endpoints.
    pub fn split(self) -> (SourceEndpoint, ServerEndpoint) {
        (self.source, self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(delta: f64) -> ProtocolConfig {
        ProtocolConfig::new(delta).unwrap()
    }

    #[test]
    fn endpoints_start_identical() {
        let session = SessionSpec::fixed(
            models::random_walk(0.1, 0.1),
            Vector::from_slice(&[2.0]),
            1.0,
            config(0.5),
        )
        .unwrap()
        .build();
        assert_eq!(
            session.source.estimator().active().state(),
            session.server.filter().state()
        );
        assert_eq!(
            session.source.estimator().active().model(),
            session.server.filter().model()
        );
    }

    #[test]
    fn default_scalar_builds() {
        let (source, server) = SessionSpec::default_scalar(7.0, config(1.0))
            .unwrap()
            .build()
            .split();
        assert_eq!(server.filter().state()[0], 7.0);
        assert_eq!(source.delta(), 1.0);
    }

    #[test]
    fn adaptive_spec_rejects_a_zero_window() {
        let adapt = AdaptiveConfig {
            window: 0,
            ..Default::default()
        };
        let err = SessionSpec::adaptive(
            models::random_walk(0.01, 0.01),
            Vector::zeros(1),
            1.0,
            adapt,
            config(1.0),
        )
        .err()
        .expect("window 0 must be refused");
        assert!(matches!(
            err,
            CoreError::BadConfig {
                what: "adaptive window",
                ..
            }
        ));
    }

    #[test]
    fn standard_bank_has_three_models() {
        let session = SessionSpec::standard_bank(0.0, 0.1, config(1.0))
            .unwrap()
            .build();
        match session.source.estimator() {
            Estimator::Bank(bank) => assert_eq!(bank.len(), 3),
            other => panic!("expected bank, got {other:?}"),
        }
    }

    #[test]
    fn bank_spec_rejects_empty() {
        assert!(SessionSpec::bank(vec![], BankConfig::default(), config(1.0)).is_err());
    }
}
