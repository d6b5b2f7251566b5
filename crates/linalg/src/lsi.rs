//! Latent Semantic Indexing over an occurrence matrix.
//!
//! WikiMatch builds an occurrence matrix `M (n × m)` where rows are the
//! unique attributes of a dual-language schema and columns are the
//! dual-language infoboxes of one entity type; `M[i][j] = 1` when attribute
//! `i` appears in dual infobox `j` (Figure 2(a) of the paper). The truncated
//! SVD `M ≈ U_f S_f V_fᵀ` yields, for every attribute, a reduced vector
//! `U_f[i] · S_f`; cross-language synonyms end up with similar vectors
//! because they occur in similar infoboxes even though they never co-occur
//! as identical strings.
//!
//! [`LsiModel`] encapsulates the decomposition and serves cosine
//! similarities between attribute vectors. The *sign conventions* of the
//! paper (complement for same-language pairs, zero for co-occurring pairs)
//! are applied by the `wikimatch` crate, not here — this module is purely the
//! numerical core.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::svd::jacobi_svd;

/// Configuration of the LSI decomposition.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LsiConfig {
    /// Explicit number of dimensions to keep; `None` selects the rank from
    /// [`LsiConfig::energy`].
    pub rank: Option<usize>,
    /// Fraction of spectral energy to preserve when `rank` is `None`.
    pub energy: f64,
}

impl Default for LsiConfig {
    fn default() -> Self {
        Self {
            rank: None,
            energy: 0.9,
        }
    }
}

/// A fitted LSI model: reduced attribute vectors scaled by the singular
/// values.
#[derive(Debug, Clone)]
pub struct LsiModel {
    /// One reduced vector per row (attribute) of the input matrix.
    vectors: Vec<Vec<f64>>,
    /// Euclidean norm of each reduced vector, precomputed at fit time so
    /// the O(n²)-pair similarity sweep pays one multiply-add per dimension
    /// instead of three (plus two square roots) per pair.
    norms: Vec<f64>,
    /// Retained singular values.
    singular_values: Vec<f64>,
}

impl LsiModel {
    /// Fits the model on an occurrence matrix (rows = attributes,
    /// columns = documents/dual infoboxes).
    pub fn fit(occurrence: &Matrix, config: LsiConfig) -> Self {
        if occurrence.is_empty() {
            return Self {
                vectors: vec![Vec::new(); occurrence.rows()],
                norms: vec![0.0; occurrence.rows()],
                singular_values: Vec::new(),
            };
        }
        let svd = jacobi_svd(occurrence);
        if svd.rank() == 0 {
            // An all-zero occurrence matrix has no latent structure at all;
            // every attribute gets an empty vector (similarity 0).
            return Self {
                vectors: vec![Vec::new(); occurrence.rows()],
                norms: vec![0.0; occurrence.rows()],
                singular_values: Vec::new(),
            };
        }
        let rank = match config.rank {
            Some(k) => k.min(svd.rank()).max(1),
            None => svd.rank_for_energy(config.energy.clamp(0.05, 1.0)).max(1),
        };
        let svd = svd.truncate(rank);

        // Attribute vector i = U[i, :] ⊙ S  (scaling by the singular values,
        // as in Deerwester et al. and the paper's description).
        let mut vectors = Vec::with_capacity(occurrence.rows());
        for r in 0..occurrence.rows() {
            let mut v = Vec::with_capacity(rank);
            for c in 0..rank {
                v.push(svd.u.get(r, c) * svd.s[c]);
            }
            vectors.push(v);
        }
        Self::with_norms(vectors, svd.s)
    }

    /// Reassembles a model from its persisted parts: one reduced vector per
    /// attribute and the retained singular values. The norms are recomputed
    /// with [`fit`](Self::fit)'s expression, so every similarity carries
    /// the bits of the model the parts were taken from. `None` when a
    /// vector's length differs from the rank (`singular_values.len()`).
    pub fn from_parts(vectors: Vec<Vec<f64>>, singular_values: Vec<f64>) -> Option<Self> {
        let rank = singular_values.len();
        vectors
            .iter()
            .all(|v| v.len() == rank)
            .then(|| Self::with_norms(vectors, singular_values))
    }

    fn with_norms(vectors: Vec<Vec<f64>>, singular_values: Vec<f64>) -> Self {
        // Norms accumulate x² in index order — exactly the `na`/`nb`
        // accumulation inside [`crate::cosine`], so similarities computed
        // from the cached norms are bit-identical to calling `cosine`.
        let norms = vectors
            .iter()
            .map(|v| v.iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect();
        Self {
            vectors,
            norms,
            singular_values,
        }
    }

    /// Number of attributes (rows) the model was fitted on.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when the model contains no attribute vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Number of retained latent dimensions.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// The retained singular values, largest first.
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }

    /// The reduced vector of attribute `i`.
    pub fn vector(&self, i: usize) -> &[f64] {
        &self.vectors[i]
    }

    /// Cosine similarity between the reduced vectors of attributes `i` and
    /// `j`, clamped to `[-1, 1]` (0.0 when either vector is all zeros).
    ///
    /// Equivalent to [`crate::cosine`] on the two vectors, but reuses the
    /// norms cached at fit time — the per-pair cost in the all-pairs
    /// similarity sweep drops to a single dot product.
    pub fn similarity(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (&self.vectors[i], &self.vectors[j]);
        let (na, nb) = (self.norms[i], self.norms[j]);
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the kind of matrix in Figure 2(a): attributes that appear in
    /// complementary languages of the same dual infoboxes.
    fn example_matrix() -> (Matrix, Vec<&'static str>) {
        let attrs = vec![
            "born",        // en
            "died",        // en
            "spouse",      // en
            "nascimento",  // pt (= born)
            "falecimento", // pt (= died)
            "conjuge",     // pt (= spouse)
        ];
        // 8 dual infoboxes; synonyms share occurrence patterns.
        let rows = vec![
            vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0], // born
            vec![0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0], // died
            vec![0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0], // spouse
            vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0], // nascimento
            vec![0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0], // falecimento
            vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0], // conjuge
        ];
        (Matrix::from_rows(&rows), attrs)
    }

    #[test]
    fn synonyms_have_similar_vectors() {
        let (m, _attrs) = example_matrix();
        let model = LsiModel::fit(&m, LsiConfig::default());
        assert_eq!(model.len(), 6);
        assert!(model.rank() >= 1);

        let born_nascimento = model.similarity(0, 3);
        let born_falecimento = model.similarity(0, 4);
        let died_falecimento = model.similarity(1, 4);
        assert!(
            born_nascimento > born_falecimento,
            "born~nascimento ({born_nascimento}) should exceed born~falecimento ({born_falecimento})"
        );
        assert!(
            died_falecimento > 0.95,
            "died~falecimento = {died_falecimento}"
        );
    }

    #[test]
    fn explicit_rank_is_respected() {
        let (m, _) = example_matrix();
        let model = LsiModel::fit(
            &m,
            LsiConfig {
                rank: Some(2),
                energy: 0.9,
            },
        );
        assert_eq!(model.rank(), 2);
        assert_eq!(model.vector(0).len(), 2);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let (m, _) = example_matrix();
        let model = LsiModel::fit(&m, LsiConfig::default());
        for i in 0..model.len() {
            for j in 0..model.len() {
                let s = model.similarity(i, j);
                assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
                assert!((s - model.similarity(j, i)).abs() < 1e-9);
            }
            assert!((model.similarity(i, i) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_matrix_yields_empty_model() {
        let model = LsiModel::fit(&Matrix::zeros(0, 0), LsiConfig::default());
        assert!(model.is_empty());
        assert_eq!(model.rank(), 0);
    }

    #[test]
    fn a_model_rebuilt_from_its_parts_has_the_same_bits() {
        let (m, _) = example_matrix();
        let model = LsiModel::fit(&m, LsiConfig::default());
        let vectors = (0..model.len()).map(|i| model.vector(i).to_vec()).collect();
        let rebuilt = LsiModel::from_parts(vectors, model.singular_values().to_vec()).unwrap();
        for i in 0..model.len() {
            for j in 0..model.len() {
                assert_eq!(
                    rebuilt.similarity(i, j).to_bits(),
                    model.similarity(i, j).to_bits()
                );
            }
        }
        // A vector whose length is not the rank is refused.
        assert!(LsiModel::from_parts(vec![vec![1.0]], vec![2.0, 1.0]).is_none());
    }

    #[test]
    fn zero_rows_get_zero_similarity() {
        let m = Matrix::from_rows(&[vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 0.0]]);
        let model = LsiModel::fit(&m, LsiConfig::default());
        assert_eq!(model.similarity(0, 1), 0.0);
    }
}
