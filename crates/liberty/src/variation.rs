//! The process-variation model: proportional + random delay components.
//!
//! §5 of the paper: *"Two variations components were added to the gate
//! delays: one proportional to delay through gate and another random source
//! corresponding to unsystematic manufacturing variations"* (following Cong
//! \[25\] and Nassif \[26\]).
//!
//! The proportional component shrinks with device size — larger devices
//! average out dopant/geometry fluctuations — which is the physical lever
//! the whole optimization rests on ("our algorithm favors bigger gate sizes
//! that reduce the variance of delay across them"). The random component is
//! an absolute floor that no sizing can remove; it is why the paper observes
//! that increasing α beyond a circuit-dependent point yields no further
//! variance reduction.
//!
//! This model answers *how much* one gate's delay varies. How gate
//! variations **co-vary** — die-to-die shifts and spatially correlated
//! within-die fields — is layered on top by the ssta crate's correlated
//! `VariationModel` (`vartol_ssta::variation`), which decomposes each
//! gate's σ from this model into local/global/spatial components.

use vartol_stats::Moments;

/// Parameters of the two-component variation model.
///
/// Standard deviation of a gate's delay:
///
/// ```text
/// σ² = (k_prop · delay / drive^size_exponent)² + sigma_floor²
/// ```
///
/// # Example
///
/// ```
/// use vartol_liberty::VariationModel;
///
/// let var = VariationModel::default();
/// // Bigger drive -> smaller sigma at the same nominal delay.
/// assert!(var.sigma(40.0, 4.0) < var.sigma(40.0, 1.0));
/// // But never below the unsystematic floor.
/// assert!(var.sigma(40.0, 1e9) >= var.sigma_floor);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VariationModel {
    /// Coefficient of the delay-proportional component at drive X1.
    pub k_prop: f64,
    /// Exponent of the drive-strength attenuation (0.5 = Pelgrom-style
    /// `1/√area` averaging).
    pub size_exponent: f64,
    /// Absolute standard deviation (ps) of the unsystematic random source.
    pub sigma_floor: f64,
}

impl VariationModel {
    /// Creates a model from its three parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or non-finite.
    #[must_use]
    pub fn new(k_prop: f64, size_exponent: f64, sigma_floor: f64) -> Self {
        assert!(
            k_prop.is_finite() && k_prop >= 0.0,
            "k_prop must be non-negative"
        );
        assert!(
            size_exponent.is_finite() && size_exponent >= 0.0,
            "size_exponent must be non-negative"
        );
        assert!(
            sigma_floor.is_finite() && sigma_floor >= 0.0,
            "sigma_floor must be non-negative"
        );
        Self {
            k_prop,
            size_exponent,
            sigma_floor,
        }
    }

    /// A variation-free model (deterministic timing).
    #[must_use]
    pub fn none() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Standard deviation of a gate delay given its nominal delay (ps) and
    /// drive strength.
    ///
    /// # Panics
    ///
    /// Panics if `drive <= 0`.
    #[must_use]
    pub fn sigma(&self, nominal_delay: f64, drive: f64) -> f64 {
        assert!(drive > 0.0, "drive must be positive, got {drive}");
        self.sigma_attenuated(nominal_delay, self.attenuation(drive))
    }

    /// The drive-strength attenuation of the proportional component,
    /// `drive^size_exponent`: a per-cell constant that callers timing many
    /// gates can compute once per cell and pass to
    /// [`VariationModel::delay_moments_attenuated`].
    #[must_use]
    pub fn attenuation(&self, drive: f64) -> f64 {
        drive.powf(self.size_exponent)
    }

    fn sigma_attenuated(&self, nominal_delay: f64, attenuation: f64) -> f64 {
        let prop = self.k_prop * nominal_delay / attenuation;
        (prop * prop + self.sigma_floor * self.sigma_floor).sqrt()
    }

    /// The full random-delay moments for a gate arc.
    ///
    /// # Panics
    ///
    /// Panics if `drive <= 0` or `nominal_delay < 0`.
    #[must_use]
    pub fn delay_moments(&self, nominal_delay: f64, drive: f64) -> Moments {
        assert!(nominal_delay >= 0.0, "nominal delay must be non-negative");
        Moments::from_mean_std(nominal_delay, self.sigma(nominal_delay, drive))
    }

    /// [`VariationModel::delay_moments`] given the drive's
    /// [`VariationModel::attenuation`] instead of the drive: the same
    /// arithmetic, so the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `nominal_delay < 0`.
    #[must_use]
    pub fn delay_moments_attenuated(&self, nominal_delay: f64, attenuation: f64) -> Moments {
        assert!(nominal_delay >= 0.0, "nominal delay must be non-negative");
        Moments::from_mean_std(
            nominal_delay,
            self.sigma_attenuated(nominal_delay, attenuation),
        )
    }

    /// The μ→σ coupling constant used by the WNSS sensitivity tracer: the
    /// paper sets the linear link `Δσ = c·Δμ` to "values ... equal to those
    /// assumed to relate mean delay through a gate to its variance", i.e.
    /// the proportional coefficient at X1.
    #[must_use]
    pub fn mu_sigma_coupling(&self) -> f64 {
        self.k_prop
    }
}

impl Default for VariationModel {
    /// The calibration used for the Table-1 reproduction: 35% proportional
    /// variation at X1 with `1/drive` attenuation and a 1.5ps random
    /// floor. The `1/drive` exponent (rather than Pelgrom's `1/√area`)
    /// reflects that the paper's delay variability mixes threshold
    /// mismatch with systematic length variation, both of which average
    /// down quickly in wide devices; the `exponent` section of the
    /// `ablation` bench sweeps it.
    fn default() -> Self {
        Self::new(0.35, 1.0, 1.5)
    }
}

impl std::fmt::Display for VariationModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "σ = sqrt(({:.3}·d/s^{:.2})² + {:.2}²)",
            self.k_prop, self.size_exponent, self.sigma_floor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_combines_components_in_quadrature() {
        let v = VariationModel::new(0.1, 0.5, 2.0);
        let want = ((0.1f64 * 40.0).powi(2) + 4.0).sqrt();
        assert!((v.sigma(40.0, 1.0) - want).abs() < 1e-12);
    }

    #[test]
    fn sigma_shrinks_with_drive() {
        let v = VariationModel::default();
        let s1 = v.sigma(40.0, 1.0);
        let s4 = v.sigma(40.0, 4.0);
        // Default exponent 1.0: drive 4 quarters the proportional part.
        assert!(s4 < s1 / 2.0);
        assert!(s4 > s1 / 4.0, "floor prevents the full 4x reduction");
    }

    #[test]
    fn floor_bounds_sigma_below() {
        let v = VariationModel::new(0.2, 0.5, 3.0);
        assert!(v.sigma(100.0, 1e12) >= 3.0 - 1e-12);
        assert!((v.sigma(0.0, 1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn none_is_deterministic() {
        let v = VariationModel::none();
        assert_eq!(v.sigma(123.0, 1.0), 0.0);
        let m = v.delay_moments(123.0, 1.0);
        assert_eq!(m, Moments::deterministic(123.0));
    }

    #[test]
    fn moments_mean_is_nominal() {
        let v = VariationModel::default();
        let m = v.delay_moments(55.0, 2.0);
        assert_eq!(m.mean, 55.0);
        assert!((m.std() - v.sigma(55.0, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_size_exponent_ignores_drive() {
        let v = VariationModel::new(0.15, 0.0, 0.0);
        assert_eq!(v.sigma(10.0, 1.0), v.sigma(10.0, 8.0));
    }

    #[test]
    fn coupling_equals_k_prop() {
        let v = VariationModel::new(0.123, 0.5, 1.0);
        assert_eq!(v.mu_sigma_coupling(), 0.123);
    }

    #[test]
    #[should_panic(expected = "drive must be positive")]
    fn zero_drive_panics() {
        let _ = VariationModel::default().sigma(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "nominal delay must be non-negative")]
    fn negative_delay_panics() {
        let _ = VariationModel::default().delay_moments(-1.0, 1.0);
    }

    #[test]
    fn display_shows_parameters() {
        let s = VariationModel::default().to_string();
        assert!(s.contains("σ"));
    }
}
