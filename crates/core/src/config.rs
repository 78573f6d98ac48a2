//! Optimizer configuration.

use vartol_ssta::SstaConfig;

/// Which statistical critical paths each pass optimizes along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PathSelection {
    /// One WNSS path from the statistically-worst output — the literal
    /// reading of the paper's pseudo-code.
    WorstOutput,
    /// The union of WNSS paths from every primary output — the paper's
    /// "statistical critical paths" (plural); converges to deeper variance
    /// reductions because the output variance is fed by many paths.
    AllOutputs,
}

/// Configuration of the [`StatisticalGreedy`](crate::StatisticalGreedy)
/// optimizer.
///
/// # Example
///
/// ```
/// use vartol_core::SizerConfig;
///
/// let config = SizerConfig::with_alpha(9.0).with_subcircuit_depth(3);
/// assert_eq!(config.alpha, 9.0);
/// assert_eq!(config.subcircuit_depth, 3);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SizerConfig {
    /// Weight of σ against μ in the cost function (eq. 7). The paper
    /// evaluates α = 3 and α = 9; higher values emphasize variance
    /// reduction at the cost of mean delay and area.
    pub alpha: f64,
    /// Levels of transitive fanin/fanout in the extracted subcircuit.
    /// The paper found 2 "sufficiently accurate without being too costly".
    pub subcircuit_depth: usize,
    /// Upper bound on outer (FULLSSTA) iterations — a safety net; the
    /// algorithm normally stops when no gate wants a new size.
    pub max_passes: usize,
    /// Which statistical critical paths each pass works along.
    pub path_selection: PathSelection,
    /// Optional delay budget: when set, passes are only kept if the
    /// circuit mean stays within this bound — the constrained mode of
    /// §2.1 ("delay is optimized first then area is recovered as far as
    /// possible without violating a delay constraint"), applied to the
    /// statistical objective.
    pub max_mean_delay: Option<f64>,
    /// Configuration of the nested timing engines.
    pub ssta: SstaConfig,
}

impl SizerConfig {
    /// A configuration with the given σ weight and paper defaults for
    /// everything else.
    #[must_use]
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "alpha must be non-negative"
        );
        Self {
            alpha,
            ..Self::default()
        }
    }

    /// Sets the subcircuit extraction depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` — the region must at least contain the gate.
    #[must_use]
    pub fn with_subcircuit_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "subcircuit depth must be positive");
        self.subcircuit_depth = depth;
        self
    }

    /// Sets the nested timing configuration.
    #[must_use]
    pub fn with_ssta(mut self, ssta: SstaConfig) -> Self {
        self.ssta = ssta;
        self
    }

    /// Sets the worker-thread count for parallel candidate scoring (and
    /// any sampling engines the run touches); `0` means one worker per
    /// available CPU. Purely a speed knob: the optimizer's result is
    /// bit-identical for every thread count (see
    /// [`StatisticalGreedy`](crate::StatisticalGreedy)).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.ssta.threads = threads;
        self
    }

    /// Caps the number of outer passes.
    #[must_use]
    pub fn with_max_passes(mut self, passes: usize) -> Self {
        self.max_passes = passes;
        self
    }

    /// Sets the path-selection strategy.
    #[must_use]
    pub fn with_path_selection(mut self, selection: PathSelection) -> Self {
        self.path_selection = selection;
        self
    }

    /// Constrains the circuit mean delay: passes that would push the mean
    /// beyond `budget` are rolled back.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not positive and finite.
    #[must_use]
    pub fn with_max_mean_delay(mut self, budget: f64) -> Self {
        assert!(
            budget.is_finite() && budget > 0.0,
            "delay budget must be positive"
        );
        self.max_mean_delay = Some(budget);
        self
    }
}

impl Default for SizerConfig {
    /// α = 3 (the paper's lighter operating point), depth 2, 40-pass cap.
    fn default() -> Self {
        Self {
            alpha: 3.0,
            subcircuit_depth: 2,
            max_passes: 40,
            path_selection: PathSelection::AllOutputs,
            max_mean_delay: None,
            ssta: SstaConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SizerConfig::default();
        assert_eq!(c.alpha, 3.0);
        assert_eq!(c.subcircuit_depth, 2);
        assert!(c.max_passes >= 10);
    }

    #[test]
    fn with_alpha_keeps_other_defaults() {
        let c = SizerConfig::with_alpha(9.0);
        assert_eq!(c.alpha, 9.0);
        assert_eq!(c.subcircuit_depth, SizerConfig::default().subcircuit_depth);
    }

    #[test]
    fn with_threads_sets_the_nested_ssta_knob() {
        let c = SizerConfig::with_alpha(3.0).with_threads(8);
        assert_eq!(c.ssta.threads, 8);
        assert_eq!(SizerConfig::default().ssta.threads, 0, "0 = all CPUs");
    }

    #[test]
    #[should_panic(expected = "alpha must be non-negative")]
    fn negative_alpha_panics() {
        let _ = SizerConfig::with_alpha(-1.0);
    }

    #[test]
    #[should_panic(expected = "subcircuit depth must be positive")]
    fn zero_depth_panics() {
        let _ = SizerConfig::default().with_subcircuit_depth(0);
    }
}
