//! # vartol-stats
//!
//! Random-variable toolkit underpinning statistical static timing analysis
//! (SSTA) and statistical gate sizing, as used by the DATE'05 paper
//! *"Improving the Process-Variation Tolerance of Digital Circuits Using Gate
//! Sizing and Statistical Techniques"* (Neiroukh & Song).
//!
//! The crate provides two complementary representations of a random delay:
//!
//! * [`Moments`] — a `(mean, variance)` pair, the currency of the fast inner
//!   timing engine (FASSTA). The statistical `max` on moments is computed
//!   either exactly via Clark's 1961 formulas ([`clark`]) or via the paper's
//!   fast approximation with dominance shortcuts ([`fast_max`]).
//! * [`DiscretePdf`] — a discretized probability density function, the
//!   currency of the accurate outer engine (FULLSSTA), supporting `sum`
//!   (convolution) and `max` (CDF product) with controllable sample counts.
//!
//! Supporting modules:
//!
//! * [`accumulator`] — mergeable Welford running moments, the summary type
//!   the chunked parallel Monte-Carlo engine reduces over (robust to the
//!   catastrophic cancellation of the naive `E[X²]−E[X]²` formula).
//! * [`erf`] — the exact error function and the paper's quadratic
//!   approximation (accurate to two decimal places, saturating at 2.6σ).
//! * [`normal`] — normal distribution pdf/cdf/quantile/sampling, and the
//!   exact and fast Box–Muller transforms with their error bound.
//! * [`montecarlo`] — Monte-Carlo estimators used as a golden reference.
//! * [`correlation`] — correlation matrices and a PCA decomposition for
//!   spatially-correlated variation sources; consumed by the ssta crate's
//!   correlated `VariationModel` (the spatial field of every engine is a
//!   linear combination of the independent principal components this
//!   module extracts from the grid's `exp(-d/L)` correlation matrix).
//! * [`sensitivity`] — finite-difference sensitivities of `Var(max(A,B))`
//!   with respect to input means, used for WNSS path tracing.
//!
//! # Example
//!
//! ```
//! use vartol_stats::{Moments, fast_max::fast_max_moments};
//!
//! let a = Moments::new(320.0, 27.0 * 27.0);
//! let b = Moments::new(190.0, 41.0 * 41.0);
//! // b is dominated: (320-190)/sqrt(27^2+41^2) > 2.6, so max == a.
//! let m = fast_max_moments(a, b);
//! assert_eq!(m, a);
//! ```

pub mod accumulator;
pub mod clark;
pub mod correlation;
pub mod discrete_pdf;
pub mod erf;
pub mod fast_max;
pub mod moments;
pub mod montecarlo;
pub mod normal;
pub mod sensitivity;

pub use accumulator::RunningMoments;
pub use clark::{clark_max, ClarkMax};
pub use discrete_pdf::{DiscretePdf, PdfOut, PdfRef};
pub use fast_max::{fast_max_moments, fast_max_with_dominance, Dominance, DOMINANCE_THRESHOLD};
pub use moments::Moments;
pub use normal::Normal;
