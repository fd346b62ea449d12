#ifndef OPENEA_ALIGN_SIMILARITY_H_
#define OPENEA_ALIGN_SIMILARITY_H_

#include "src/math/matrix.h"

namespace openea::align {

/// Distance metrics offered by the alignment module (paper Sect. 2.2.2).
/// All are exposed as *similarities* (greater = closer) so that inference
/// strategies can maximize uniformly: cosine is used as-is; Euclidean and
/// Manhattan distances are negated.
enum class DistanceMetric { kCosine, kEuclidean, kManhattan, kInner };

/// Returns the human-readable metric name ("cosine", ...).
const char* DistanceMetricName(DistanceMetric metric);

/// Computes the (src.rows() x tgt.rows()) similarity matrix between row
/// embeddings under `metric`.
math::Matrix SimilarityMatrix(const math::Matrix& src, const math::Matrix& tgt,
                              DistanceMetric metric);

/// Applies cross-domain similarity local scaling (CSLS, paper Eq. 7) in
/// place: sim'(s, t) = 2 sim(s, t) - avg_topk_t(sim(s, .)) -
/// avg_topk_s(sim(., t)). Mitigates hubness by penalizing entities that are
/// near-neighbours of many counterparts.
void ApplyCsls(math::Matrix& sim, int k = 10);

namespace detail {

/// Fills the (q_rows x r_rows) block out[q * ldo + r] with the similarity
/// of source row q (at a + q * lda, L2 norm a_norms[q]) against target row r
/// (at b + r * ldb, L2 norm b_norms[r]), all rows n floats long. The norms
/// are read by cosine only and may be null for the other metrics.
///
/// This is THE cell kernel: the dense SimilarityMatrix, the streaming top-k,
/// the IVF build and probes and every candidate source produce each
/// similarity value through this one function on top of the dispatched
/// tile kernels (src/math/kernels.h). A cell's value does not depend on the
/// block it was computed in, which is what keeps all of them bit-identical
/// to each other under either backend.
void MetricBlock(DistanceMetric metric, const float* a, size_t lda,
                 const float* a_norms, size_t q_rows, const float* b,
                 size_t ldb, const float* b_norms, size_t r_rows, float* out,
                 size_t ldo, size_t n);

/// One similarity cell: a 1 x 1 MetricBlock, so a single cell is
/// bit-identical to the same cell of any blocked scan.
inline float MetricCell(DistanceMetric metric, const float* a, float na,
                        const float* b, float nb, size_t n) {
  float out = 0.0f;
  MetricBlock(metric, a, n, &na, 1, b, n, &nb, 1, &out, 1, n);
  return out;
}

}  // namespace detail

}  // namespace openea::align

#endif  // OPENEA_ALIGN_SIMILARITY_H_
