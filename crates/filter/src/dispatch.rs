//! Runtime dispatch over the monomorphized [`FleetBatch`] shapes.
//!
//! The batch kernels are const-generic, but stream dimensions arrive at
//! runtime (from wire-decoded models). [`DynFleetBatch`] closes the gap: an
//! enum with one variant per supported `(state_dim, measurement_dim)` pair —
//! the workspace's dominant shapes, state ∈ {1, 2, 4, 8} × measurement
//! ∈ {1, 2, 3, 4} (measurement ≤ state) — each wrapping the matching
//! `FleetBatch<N, M>`. Dispatch happens once per *batch operation*, not per
//! lane, so the enum match is amortized over thousands of streams.
//!
//! Streams whose dimensions fall outside the table (or whose filters use a
//! non-default covariance form) simply stay on the scalar [`KalmanFilter`]
//! path — [`DynFleetBatch::supported`] is the routing predicate. The same
//! table (`for_each_shape!`) routes a lone [`KalmanFilter`]'s own
//! `predict`/`update` onto the monomorphized kernel, so "which shapes are
//! static" has one answer in the workspace.
//!
//! [`KalmanFilter`]: crate::KalmanFilter

use kalstream_linalg::{Matrix, Vector};

use crate::{FleetBatch, Result, StateModel};

/// The workspace's one shape table: every `(state_dim, measurement_dim)`
/// pair with a monomorphized kernel. `for_each_shape!(mac, args…)` expands
/// to `mac! { [args…] (Variant, n, m), … }`, so [`DynFleetBatch`]'s
/// variants, its delegation match and [`KalmanFilter`]'s scalar dispatch
/// all read the same list. Order: state dim major, measurement dim minor,
/// measurement ≤ state.
///
/// [`KalmanFilter`]: crate::KalmanFilter
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
            /// Whether a `(state_dim, measurement_dim)` pair has a
            /// monomorphized batch kernel.
            pub fn supported(state_dim: usize, measurement_dim: usize) -> bool {
                matches!(
                    (state_dim, measurement_dim),
                    $(($n, $m))|+
                )
            }

            /// Builds an empty batch for `model`, or `None` when its
            /// dimensions have no batch kernel (the caller keeps those
            /// streams on the scalar path).
            pub fn for_model(model: &StateModel) -> Option<Self> {
                match (model.state_dim(), model.measurement_dim()) {
                    $(($n, $m) => FleetBatch::<$n, $m>::new(model)
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
    /// State dimension of every lane.
    pub fn state_dim(&self) -> usize {
        delegate!(self, b => b.model().state_dim())
    }

    /// Measurement dimension of every lane.
    pub fn measurement_dim(&self) -> usize {
        delegate!(self, b => b.model().measurement_dim())
    }

    /// The shared model all lanes run.
    pub fn model(&self) -> &StateModel {
        delegate!(self, b => b.model())
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

    /// Gathers a lane back into dynamic values; see
    /// [`FleetBatch::lane_state`].
    pub fn lane_state(&self, lane: usize) -> (Vector, Matrix, u64) {
        delegate!(self, b => b.lane_state(lane))
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

    /// A lane's predicted measurement `H x`.
    pub fn predicted_measurement(&self, lane: usize) -> Vector {
        delegate!(self, b => b.predicted_measurement(lane))
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
    fn shape_table_matches_supported() {
        for n in 0..10 {
            for m in 0..6 {
                let expect = matches!(n, 1 | 2 | 4 | 8) && (1..=4).contains(&m) && m <= n;
                assert_eq!(DynFleetBatch::supported(n, m), expect, "({n}, {m})");
            }
        }
    }

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
        let ca = models::constant_acceleration(1.0, 0.05, 0.1); // (3, 1)
        assert!(DynFleetBatch::for_model(&ca).is_none());
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
        let (x, p, steps) = batch.lane_state(lane);
        assert_eq!(&x, kf.state());
        assert_eq!(&p, kf.covariance());
        assert_eq!(steps, kf.steps_since_update());
        assert!(batch.lane_is_finite(lane));
        assert_eq!(
            batch.predicted_measurement(lane),
            kf.predicted_measurement()
        );
    }
}
