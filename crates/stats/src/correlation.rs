//! Correlation matrices and principal-component decomposition.
//!
//! The paper's outer engine "can track correlations due to reconvergent
//! paths using Principal Component Analysis \[17\] or other methods as long as
//! runtime is managed appropriately" (§4.3). This module supplies that hook:
//! a symmetric correlation matrix type, a Jacobi eigen-decomposition, and a
//! PCA that rewrites a set of correlated normal variation sources as linear
//! combinations of independent principal components.

use crate::moments::Moments;

/// A symmetric correlation matrix with unit diagonal.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationMatrix {
    n: usize,
    /// Row-major storage, `n × n`.
    data: Vec<f64>,
}

impl CorrelationMatrix {
    /// The identity correlation (all sources independent).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "correlation matrix needs at least one variable");
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self { n, data }
    }

    /// Number of variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — constructors require at least one variable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The correlation between variables `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// Sets the correlation between `i` and `j` (both triangles).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds, `i == j`, or `rho` is outside
    /// `[-1, 1]`.
    pub fn set(&mut self, i: usize, j: usize, rho: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        assert!(i != j, "diagonal is fixed at 1");
        assert!(
            (-1.0..=1.0).contains(&rho),
            "correlation must be in [-1,1], got {rho}"
        );
        self.data[i * self.n + j] = rho;
        self.data[j * self.n + i] = rho;
    }

    /// Distance-based spatial correlation: `rho(i,j) = exp(-d(i,j)/length)`
    /// for points on a plane — the standard model for intra-die spatial
    /// variation (Chang & Sapatnekar, ICCAD'03).
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty or `correlation_length <= 0`.
    #[must_use]
    pub fn spatial(positions: &[(f64, f64)], correlation_length: f64) -> Self {
        assert!(!positions.is_empty(), "need at least one position");
        assert!(
            correlation_length > 0.0,
            "correlation length must be positive"
        );
        let n = positions.len();
        let mut m = Self::identity(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = positions[i].0 - positions[j].0;
                let dy = positions[i].1 - positions[j].1;
                let d = (dx * dx + dy * dy).sqrt();
                m.set(i, j, (-d / correlation_length).exp());
            }
        }
        m
    }

    /// Eigen-decomposition via cyclic Jacobi rotations. Returns
    /// `(eigenvalues, eigenvectors)` with eigenvectors stored row-wise
    /// (row `k` is the unit eigenvector for `eigenvalues[k]`), sorted by
    /// descending eigenvalue.
    #[must_use]
    pub fn eigen_decompose(&self) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = self.n;
        let mut a = self.data.clone();
        // v accumulates rotations; starts as identity.
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }

        let max_sweeps = 100;
        for _ in 0..max_sweeps {
            // Largest off-diagonal magnitude decides convergence.
            let mut off = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    off = off.max(a[i * n + j].abs());
                }
            }
            if off < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() < 1e-15 {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    let theta = 0.5 * (aqq - app) / apq;
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Rotate rows/columns p and q of a.
                    for k in 0..n {
                        let akp = a[k * n + p];
                        let akq = a[k * n + q];
                        a[k * n + p] = c * akp - s * akq;
                        a[k * n + q] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[p * n + k];
                        let aqk = a[q * n + k];
                        a[p * n + k] = c * apk - s * aqk;
                        a[q * n + k] = s * apk + c * aqk;
                    }
                    // Accumulate eigenvectors (rows of v).
                    for k in 0..n {
                        let vpk = v[p * n + k];
                        let vqk = v[q * n + k];
                        v[p * n + k] = c * vpk - s * vqk;
                        v[q * n + k] = s * vpk + c * vqk;
                    }
                }
            }
        }

        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
            .map(|i| (a[i * n + i], v[i * n..(i + 1) * n].to_vec()))
            .collect();
        pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
        let values = pairs.iter().map(|p| p.0).collect();
        let vectors = pairs.into_iter().map(|p| p.1).collect();
        (values, vectors)
    }
}

/// A PCA decomposition of correlated normal sources: each original variable
/// `Xᵢ = μᵢ + Σₖ loadings[i][k] · Zₖ` with independent standard-normal `Zₖ`.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaModel {
    /// Means of the original variables.
    pub means: Vec<f64>,
    /// `loadings[i][k]`: weight of principal component `k` in variable `i`.
    pub loadings: Vec<Vec<f64>>,
    /// Eigenvalues (variances carried by each component), descending.
    pub component_variances: Vec<f64>,
}

impl PcaModel {
    /// Decomposes correlated normals given per-variable moments and their
    /// correlation matrix. Eigenvalues clipped below at 0 (the matrix should
    /// be PSD; tiny negative values arise from floating point).
    ///
    /// # Panics
    ///
    /// Panics if `moments.len() != corr.len()`.
    #[must_use]
    pub fn decompose(moments: &[Moments], corr: &CorrelationMatrix) -> Self {
        assert_eq!(moments.len(), corr.len(), "dimension mismatch");
        let n = moments.len();
        let (values, vectors) = corr.eigen_decompose();
        let mut loadings = vec![vec![0.0; n]; n];
        for (k, (lambda, vk)) in values.iter().zip(&vectors).enumerate() {
            let scale = lambda.max(0.0).sqrt();
            for i in 0..n {
                // Correlation-space loading scaled back by sigma_i.
                loadings[i][k] = moments[i].std() * scale * vk[i];
            }
        }
        Self {
            means: moments.iter().map(|m| m.mean).collect(),
            loadings,
            component_variances: values.iter().map(|v| v.max(0.0)).collect(),
        }
    }

    /// Number of variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// True when the model has no variables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// Reconstructs the covariance `Cov(Xᵢ, Xⱼ)` implied by the loadings.
    #[must_use]
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        self.loadings[i]
            .iter()
            .zip(&self.loadings[j])
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Fraction of total variance explained by the first `k` components.
    #[must_use]
    pub fn explained_variance(&self, k: usize) -> f64 {
        let total: f64 = self.component_variances.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        let head: f64 = self.component_variances.iter().take(k).sum();
        head / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_unit_diagonal() {
        let m = CorrelationMatrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn set_is_symmetric() {
        let mut m = CorrelationMatrix::identity(3);
        m.set(0, 2, 0.5);
        assert_eq!(m.get(0, 2), 0.5);
        assert_eq!(m.get(2, 0), 0.5);
    }

    #[test]
    #[should_panic(expected = "diagonal is fixed")]
    fn set_diagonal_panics() {
        let mut m = CorrelationMatrix::identity(2);
        m.set(1, 1, 0.5);
    }

    #[test]
    fn spatial_decays_with_distance() {
        let m = CorrelationMatrix::spatial(&[(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)], 2.0);
        assert!(m.get(0, 1) > m.get(0, 2));
        assert!((m.get(0, 1) - (-0.5f64).exp()).abs() < 1e-12);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn eigen_identity() {
        let m = CorrelationMatrix::identity(4);
        let (values, vectors) = m.eigen_decompose();
        for v in values {
            assert!((v - 1.0).abs() < 1e-9);
        }
        // Eigenvectors orthonormal.
        for v in &vectors {
            let norm: f64 = v.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn eigen_two_by_two_known() {
        // [[1, r],[r, 1]] has eigenvalues 1±r.
        let mut m = CorrelationMatrix::identity(2);
        m.set(0, 1, 0.6);
        let (values, _) = m.eigen_decompose();
        assert!((values[0] - 1.6).abs() < 1e-9);
        assert!((values[1] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn eigen_trace_preserved() {
        let m = CorrelationMatrix::spatial(
            &[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (3.0, 3.0)],
            1.5,
        );
        let (values, _) = m.eigen_decompose();
        let trace: f64 = values.iter().sum();
        assert!((trace - 5.0).abs() < 1e-8, "trace {trace}");
    }

    #[test]
    fn pca_reconstructs_covariance() {
        let mut corr = CorrelationMatrix::identity(3);
        corr.set(0, 1, 0.8);
        corr.set(0, 2, 0.3);
        corr.set(1, 2, 0.4);
        let moments = vec![
            Moments::from_mean_std(10.0, 2.0),
            Moments::from_mean_std(20.0, 3.0),
            Moments::from_mean_std(30.0, 1.0),
        ];
        let pca = PcaModel::decompose(&moments, &corr);
        for i in 0..3 {
            for j in 0..3 {
                let want = moments[i].std() * moments[j].std() * corr.get(i, j);
                let got = pca.covariance(i, j);
                assert!((got - want).abs() < 1e-6, "cov({i},{j}) {got} vs {want}");
            }
        }
    }

    #[test]
    fn pca_explained_variance_monotone() {
        let corr = CorrelationMatrix::spatial(&[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], 1.0);
        let moments = vec![Moments::from_mean_std(0.0, 1.0); 3];
        let pca = PcaModel::decompose(&moments, &corr);
        assert!(pca.explained_variance(1) <= pca.explained_variance(2) + 1e-12);
        assert!((pca.explained_variance(3) - 1.0).abs() < 1e-9);
        assert!(
            pca.explained_variance(1) > 1.0 / 3.0,
            "strong spatial correlation concentrates variance"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn pca_dimension_mismatch_panics() {
        let corr = CorrelationMatrix::identity(2);
        let _ = PcaModel::decompose(&[Moments::zero()], &corr);
    }
}
