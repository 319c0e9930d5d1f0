//! Runtime dispatch over the monomorphized [`FleetBatch`] shapes.
//!
//! The batch kernels are const-generic, but stream dimensions arrive at
//! runtime (from wire-decoded models). [`DynFleetBatch`] closes the gap: an
//! enum with one variant per row of the workspace shape table — state
//! ∈ {1, 2, 4, 8} × measurement ∈ {1, 2, 3, 4} (measurement ≤ state) —
//! each wrapping the matching `FleetBatch<N, M>`. Dispatch happens once per
//! *batch operation*, not per lane, so the enum match is amortized over
//! thousands of streams.
//!
//! Every shape a [`KalmanFilter`] admits (state ≤ 8, measurement ≤ 4) has a
//! batch: [`DynFleetBatch::for_model_in_form`] puts a model on the row
//! `(max(n, m).next_power_of_two(), m)` — its own row when it is on the
//! table, else the zero-padded one, the route a lone filter's
//! `predict`/`update` takes. The same table (`for_each_shape!`) drives
//! both, so "which shapes are static" has one answer in the workspace.

use kalstream_linalg::{Matrix, Vector};

use crate::{CovarianceUpdate, FleetBatch, KalmanFilter, Result, StateModel};

/// The workspace's one shape table: every `(state_dim, measurement_dim)`
/// pair with a monomorphized kernel. `for_each_shape!(mac, args…)` expands
/// to `mac! { [args…] (Variant, n, m), … }`, so [`DynFleetBatch`]'s
/// variants, its delegation match and [`KalmanFilter`]'s scalar dispatch
/// all read the same list. Order: state dim major, measurement dim minor,
/// measurement ≤ state.
macro_rules! for_each_shape {
    ($mac:ident $(, $($args:tt)*)?) => {
        $mac! {
            [$($($args)*)?]
            (B1x1, 1, 1),
            (B2x1, 2, 1), (B2x2, 2, 2),
            (B4x1, 4, 1), (B4x2, 4, 2), (B4x3, 4, 3), (B4x4, 4, 4),
            (B8x1, 8, 1), (B8x2, 8, 2), (B8x3, 8, 3), (B8x4, 8, 4)
        }
    };
}
pub(crate) use for_each_shape;

macro_rules! define_enum {
    ([] $(($variant:ident, $n:literal, $m:literal)),+) => {
        /// A [`FleetBatch`] of runtime-selected dimensions. See the module
        /// docs for the shape table.
        #[derive(Debug)]
        pub enum DynFleetBatch {
            $(
                #[doc = concat!("`FleetBatch<", $n, ", ", $m, ">`.")]
                $variant(FleetBatch<$n, $m>),
            )+
        }
    };
}
for_each_shape!(define_enum);

/// Delegates a method body through the variant match.
macro_rules! delegate {
    ($self:ident, $batch:ident => $body:expr) => {
        for_each_shape!(delegate_arms, $self, $batch => $body)
    };
}

macro_rules! delegate_arms {
    ([$self:ident, $batch:ident => $body:expr] $(($variant:ident, $n:literal, $m:literal)),+) => {
        match $self {
            $(DynFleetBatch::$variant($batch) => $body,)+
        }
    };
}

macro_rules! define_constructors {
    ([] $(($variant:ident, $n:literal, $m:literal)),+) => {
        impl DynFleetBatch {
            /// Builds an empty batch for `model` whose updates run the
            /// covariance formula `form`, on the table row
            /// `(max(n, m).next_power_of_two(), m)` (module docs), or `None`
            /// when the model is wider than any row (a measurement above 4:
            /// no filter admits it either).
            pub fn for_model_in_form(model: &StateModel, form: CovarianceUpdate) -> Option<Self> {
                let (n, m) = (model.state_dim(), model.measurement_dim());
                match (n.max(m).next_power_of_two(), m) {
                    $(($n, $m) => FleetBatch::<$n, $m>::new(model, form)
                        .ok()
                        .map(DynFleetBatch::$variant),)+
                    _ => None,
                }
            }
        }
    };
}
for_each_shape!(define_constructors);

impl DynFleetBatch {
    /// [`DynFleetBatch::for_model_in_form`] in the default Joseph form.
    pub fn for_model(model: &StateModel) -> Option<Self> {
        Self::for_model_in_form(model, CovarianceUpdate::Joseph)
    }

    /// State dimension of every lane.
    pub fn state_dim(&self) -> usize {
        delegate!(self, b => b.model().state_dim())
    }

    /// Measurement dimension of every lane.
    pub fn measurement_dim(&self) -> usize {
        delegate!(self, b => b.model().measurement_dim())
    }

    /// The model the batch was built for; see [`FleetBatch::model`].
    pub fn model(&self) -> &StateModel {
        delegate!(self, b => b.model())
    }

    /// Whether a filter of `model` and `form` can step on this batch's
    /// lanes; see [`FleetBatch::runs`].
    pub fn runs(&self, model: &StateModel, form: CovarianceUpdate) -> bool {
        delegate!(self, b => b.runs(model, form))
    }

    /// The covariance formula every update runs.
    pub fn covariance_update(&self) -> CovarianceUpdate {
        delegate!(self, b => b.covariance_update())
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        delegate!(self, b => b.len())
    }

    /// Whether the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        delegate!(self, b => b.is_empty())
    }

    /// Appends a lane; see [`FleetBatch::push`].
    ///
    /// # Errors
    /// [`crate::FilterError::BadModel`] on shape mismatch.
    pub fn push(&mut self, x0: &Vector, p0: &Matrix, steps_since_update: u64) -> Result<usize> {
        delegate!(self, b => b.push(x0, p0, steps_since_update))
    }

    /// Appends a lane seeded from a filter, noise included; see
    /// [`FleetBatch::push_filter`].
    ///
    /// # Errors
    /// [`crate::FilterError::BadModel`] on shape mismatch.
    pub fn push_filter(&mut self, filter: &KalmanFilter) -> Result<usize> {
        delegate!(self, b => b.push_filter(filter))
    }

    /// Rewrites a lane from a filter in place; see
    /// [`FleetBatch::set_lane_filter`].
    ///
    /// # Errors
    /// [`crate::FilterError::BadModel`] on shape mismatch.
    pub fn set_lane_filter(&mut self, lane: usize, filter: &KalmanFilter) -> Result<()> {
        delegate!(self, b => b.set_lane_filter(lane, filter))
    }

    /// Batch time update; see [`FleetBatch::predict_all`].
    pub fn predict_all(&mut self) -> usize {
        delegate!(self, b => b.predict_all())
    }

    /// Batch measurement update; see [`FleetBatch::update_all`].
    ///
    /// # Errors
    /// See [`FleetBatch::update_all`].
    pub fn update_all(&mut self, z: &[f64]) -> Result<usize> {
        delegate!(self, b => b.update_all(z))
    }

    /// Single-lane measurement update; see [`FleetBatch::update_lane`].
    ///
    /// # Errors
    /// See [`FleetBatch::update_lane`].
    pub fn update_lane(&mut self, lane: usize, z: &[f64]) -> Result<()> {
        delegate!(self, b => b.update_lane(lane, z))
    }

    /// Overwrites a lane's state (protocol resync) from `x` and the packed
    /// upper triangle of `P`; see [`FleetBatch::set_lane_packed`].
    ///
    /// # Errors
    /// [`crate::FilterError::BadModel`] on length mismatch.
    pub fn set_lane_packed(
        &mut self,
        lane: usize,
        x: impl ExactSizeIterator<Item = f64>,
        p_upper: impl ExactSizeIterator<Item = f64>,
    ) -> Result<()> {
        delegate!(self, b => b.set_lane_packed(lane, x, p_upper))
    }

    /// A lane as a filter of its own; see [`FleetBatch::lane_filter`].
    pub fn lane_filter(&self, lane: usize, name: impl Into<std::sync::Arc<str>>) -> KalmanFilter {
        delegate!(self, b => b.lane_filter(lane, name))
    }

    /// A lane's staleness counter.
    pub fn steps_since_update(&self, lane: usize) -> u64 {
        delegate!(self, b => b.steps_since_update(lane))
    }

    /// Removes a lane by swapping the last lane into its slot; see
    /// [`FleetBatch::swap_remove_lane`].
    pub fn swap_remove_lane(&mut self, lane: usize) -> Option<usize> {
        delegate!(self, b => b.swap_remove_lane(lane))
    }

    /// Whether a lane's state is fully finite.
    pub fn lane_is_finite(&self, lane: usize) -> bool {
        delegate!(self, b => b.lane_is_finite(lane))
    }

    /// Batch suppression verdicts; see
    /// [`FleetBatch::suppression_verdicts_into`].
    ///
    /// # Errors
    /// See [`FleetBatch::suppression_verdicts_into`].
    pub fn suppression_verdicts_into(
        &mut self,
        z: &[f64],
        delta: f64,
        out: &mut [bool],
    ) -> Result<()> {
        delegate!(self, b => b.suppression_verdicts_into(z, delta, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, KalmanFilter};

    #[test]
    fn for_model_routes_by_dims() {
        let cv = models::constant_velocity(1.0, 0.05, 0.1); // (2, 1)
        let batch = DynFleetBatch::for_model(&cv).unwrap();
        assert!(matches!(batch, DynFleetBatch::B2x1(_)));
        assert_eq!(batch.state_dim(), 2);
        assert_eq!(batch.measurement_dim(), 1);
        let walk = models::random_walk(0.01, 0.01); // (1, 1): the default scalar session
        assert!(matches!(
            DynFleetBatch::for_model(&walk),
            Some(DynFleetBatch::B1x1(_))
        ));
        // Off the table: (3, 1) runs zero-padded on the 4 × 1 row, and a
        // measurement wider than the state on the row of its own width.
        let ca = models::constant_acceleration(1.0, 0.05, 0.1);
        let padded = DynFleetBatch::for_model_in_form(&ca, CovarianceUpdate::Simple).unwrap();
        assert!(matches!(padded, DynFleetBatch::B4x1(_)));
        assert_eq!(padded.state_dim(), 3);
        assert_eq!(padded.measurement_dim(), 1);
        assert_eq!(padded.covariance_update(), CovarianceUpdate::Simple);
        let wide = StateModel::new(
            "wide",
            Matrix::scalar(1, 1.0),
            Matrix::scalar(1, 0.1),
            Matrix::from_rows(&[&[1.0], &[0.5], &[-1.0]]),
            Matrix::scalar(3, 0.2),
        )
        .unwrap();
        assert!(matches!(
            DynFleetBatch::for_model(&wide),
            Some(DynFleetBatch::B4x3(_))
        ));
    }

    #[test]
    fn dyn_dispatch_steps_like_scalar() {
        let model = models::constant_velocity(1.0, 0.05, 0.1);
        let mut batch = DynFleetBatch::for_model(&model).unwrap();
        let x0 = Vector::from_slice(&[0.5, -0.5]);
        let p0 = Matrix::scalar(2, 1.0);
        let lane = batch.push(&x0, &p0, 0).unwrap();
        let mut kf = KalmanFilter::with_covariance(model, x0, p0).unwrap();
        let mut verdicts = [false];
        for t in 0..100 {
            assert_eq!(batch.predict_all(), 0);
            kf.predict().unwrap();
            let z = (t as f64 * 0.2).sin();
            batch
                .suppression_verdicts_into(&[z], 0.4, &mut verdicts)
                .unwrap();
            let scalar_verdict = kf
                .predicted_measurement()
                .max_abs_diff(&Vector::from_slice(&[z]))
                <= 0.4;
            assert_eq!(verdicts[0], scalar_verdict, "tick {t}");
            batch.update_lane(lane, &[z]).unwrap();
            kf.update(&Vector::from_slice(&[z])).unwrap();
        }
        let lane_kf = batch.lane_filter(lane, "lane");
        assert_eq!(lane_kf.state(), kf.state());
        assert_eq!(lane_kf.covariance(), kf.covariance());
        assert_eq!(lane_kf.steps_since_update(), kf.steps_since_update());
        assert!(batch.lane_is_finite(lane));
    }
}
