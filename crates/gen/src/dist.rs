//! From-scratch statistical distributions over `rand`'s uniform source.
//!
//! The sanctioned dependency set contains `rand` but not `rand_distr`, so the
//! non-uniform samplers the workloads need are implemented here: Gaussian
//! (Marsaglia polar method), and exponential and Pareto (inverse CDF). All
//! samplers consume a generic
//! [`rand::Rng`], are deterministic given the RNG, and are validated by
//! moment tests.

use rand::{Rng, RngExt};

/// Normal distribution `N(mean, std²)` sampled with the Marsaglia polar
/// method (a rejection variant of Box–Muller that avoids trigonometry).
///
/// The sampler is stateless — the common "cache the spare variate"
/// optimisation is deliberately omitted so that cloning a generator never
/// hides half-consumed state (determinism over micro-speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates `N(mean, std²)`.
    ///
    /// # Panics
    /// Panics when `std < 0` or parameters are non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0, "standard deviation must be non-negative");
        assert!(
            mean.is_finite() && std.is_finite(),
            "parameters must be finite"
        );
        Normal { mean, std }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard-deviation parameter.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std == 0.0 {
            return self.mean;
        }
        // Marsaglia polar: draw (u, v) uniform in the unit square mapped to
        // [-1, 1]²; accept when inside the unit circle.
        loop {
            let u = 2.0 * rng.random::<f64>() - 1.0;
            let v = 2.0 * rng.random::<f64>() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std * u * factor;
            }
        }
    }
}

/// Exponential distribution with rate `lambda`, sampled by inverse CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential with rate `lambda > 0` (mean `1/lambda`).
    ///
    /// # Panics
    /// Panics when `lambda <= 0` or non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "rate must be positive and finite"
        );
        Exponential { lambda }
    }

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - U avoids ln(0); U ∈ [0, 1).
        let u: f64 = rng.random();
        -(1.0 - u).max(f64::MIN_POSITIVE).ln() / self.lambda
    }
}

/// Pareto (type I) distribution with scale `x_min` and shape `alpha`,
/// sampled by inverse CDF. Heavy-tailed: models network latency spikes and
/// burst sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto with minimum value `x_min > 0` and tail index
    /// `alpha > 0` (smaller `alpha` = heavier tail; mean finite only for
    /// `alpha > 1`).
    ///
    /// # Panics
    /// Panics on non-positive or non-finite parameters.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(
            x_min > 0.0 && x_min.is_finite(),
            "x_min must be positive and finite"
        );
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "alpha must be positive and finite"
        );
        Pareto { x_min, alpha }
    }

    /// Scale parameter (minimum value).
    pub fn x_min(&self) -> f64 {
        self.x_min
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Theoretical mean (`inf` when `alpha <= 1`).
    pub fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.x_min / (self.alpha - 1.0)
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        self.x_min / (1.0 - u).max(f64::MIN_POSITIVE).powf(1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const N: usize = 60_000;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..N).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let d = Normal::new(5.0, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 5.0);
        }
    }

    #[test]
    fn normal_tail_fractions() {
        // ~31.7% of samples beyond 1σ, ~4.6% beyond 2σ.
        let d = Normal::standard();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut beyond1 = 0usize;
        let mut beyond2 = 0usize;
        for _ in 0..N {
            let x = d.sample(&mut rng).abs();
            if x > 1.0 {
                beyond1 += 1;
            }
            if x > 2.0 {
                beyond2 += 1;
            }
        }
        let f1 = beyond1 as f64 / N as f64;
        let f2 = beyond2 as f64 / N as f64;
        assert!((f1 - 0.317).abs() < 0.01, "1σ tail {f1}");
        assert!((f2 - 0.0455).abs() < 0.006, "2σ tail {f2}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normal_rejects_negative_std() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::new(0.5); // mean 2, var 4
        let mut rng = SmallRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..N).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn pareto_respects_minimum_and_mean() {
        let d = Pareto::new(1.0, 3.0); // mean = 1.5
        let mut rng = SmallRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..N).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= 1.0));
        let (mean, _) = moments(&samples);
        assert!(
            (mean - d.mean()).abs() < 0.05,
            "mean {mean} want {}",
            d.mean()
        );
    }

    #[test]
    fn pareto_heavy_tail_has_infinite_mean_flag() {
        assert_eq!(Pareto::new(1.0, 1.0).mean(), f64::INFINITY);
        assert_eq!(Pareto::new(2.0, 2.0).mean(), 4.0);
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let d = Normal::standard();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
