#include "src/align/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/telemetry.h"
#include "src/math/kernels.h"
#include "src/math/row_banks.h"

namespace openea::align {

const char* DistanceMetricName(DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kCosine: return "cosine";
    case DistanceMetric::kEuclidean: return "euclidean";
    case DistanceMetric::kManhattan: return "manhattan";
    case DistanceMetric::kInner: return "inner";
  }
  return "?";
}

namespace detail {
namespace {

/// `x` when `keep`, else +0.0f, through a bit mask: the compiler does not
/// turn a float select over a division into a branch-free one (the division
/// could trap), but it vectorizes this.
inline float KeepOrZero(float x, bool keep) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits &= 0u - static_cast<uint32_t>(keep);
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

}  // namespace

void MetricBlock(DistanceMetric metric, const float* a, size_t lda,
                 const float* a_norms, size_t q_rows, const float* b,
                 size_t ldb, const float* b_norms, size_t r_rows, float* out,
                 size_t ldo, size_t n) {
  const math::kernels::KernelTable& kt = math::kernels::Active();
  // The per-cell scaling below is branch-free over each output row, so it
  // vectorizes; every lane gives the float of the scalar expression.
  switch (metric) {
    case DistanceMetric::kCosine:
      // Same guard and final expression as math::CosineSimilarity; the
      // norms are pure per-row functions, so caching them is bitwise
      // equivalent to recomputing per pair.
      kt.dot_tile(a, lda, b, ldb, out, ldo, q_rows, r_rows, n);
      for (size_t q = 0; q < q_rows; ++q) {
        float* row = out + q * ldo;
        const float na = a_norms[q];
        if (na < 1e-12f) {
          std::fill(row, row + r_rows, 0.0f);
          continue;
        }
        for (size_t r = 0; r < r_rows; ++r) {
          row[r] = KeepOrZero(row[r] / (na * b_norms[r]),
                              !(b_norms[r] < 1e-12f));
        }
      }
      break;
    case DistanceMetric::kEuclidean:
      kt.squared_l2_distance_tile(a, lda, b, ldb, out, ldo, q_rows, r_rows,
                                  n);
      for (size_t q = 0; q < q_rows; ++q) {
        float* row = out + q * ldo;
        for (size_t r = 0; r < r_rows; ++r) row[r] = -std::sqrt(row[r]);
      }
      break;
    case DistanceMetric::kManhattan:
      kt.l1_distance_tile(a, lda, b, ldb, out, ldo, q_rows, r_rows, n);
      for (size_t q = 0; q < q_rows; ++q) {
        float* row = out + q * ldo;
        for (size_t r = 0; r < r_rows; ++r) row[r] = -row[r];
      }
      break;
    case DistanceMetric::kInner:
      kt.dot_tile(a, lda, b, ldb, out, ldo, q_rows, r_rows, n);
      break;
  }
}

}  // namespace detail

math::Matrix SimilarityMatrix(const math::Matrix& src,
                              const math::Matrix& tgt,
                              DistanceMetric metric) {
  OPENEA_CHECK_EQ(src.cols(), tgt.cols());
  telemetry::ScopedSpan span("similarity_matrix");
  telemetry::IncrCounter("align/sim_cells", src.rows() * tgt.rows());
  math::Matrix sim(src.rows(), tgt.rows());
  std::vector<float> tgt_norms;
  std::vector<float> src_norms;
  if (metric == DistanceMetric::kCosine) {
    src_norms = math::RowNorms(src);
    tgt_norms = math::RowNorms(tgt);
  }
  // Row-parallel: every similarity cell is written exactly once, so the
  // result is bit-identical at any thread count. Each chunk of output rows
  // is one multi-row block over all targets.
  ParallelFor(0, src.rows(), 0, [&](size_t row_begin, size_t row_end) {
    detail::MetricBlock(metric, src.Row(row_begin).data(), src.cols(),
                        src_norms.empty() ? nullptr
                                          : src_norms.data() + row_begin,
                        row_end - row_begin,
                        tgt.rows() > 0 ? tgt.Row(0).data() : nullptr,
                        tgt.cols(),
                        tgt_norms.empty() ? nullptr : tgt_norms.data(),
                        tgt.rows(), sim.Row(row_begin).data(), tgt.rows(),
                        tgt.cols());
  });
  return sim;
}

void ApplyCsls(math::Matrix& sim, int k) {
  const size_t rows = sim.rows();
  const size_t cols = sim.cols();
  if (rows == 0 || cols == 0) return;
  // Per-direction neighbourhood clamp: psi_src ranks row i's `cols`
  // candidate targets, psi_tgt ranks column j's `rows` candidate sources.
  // A single clamp to max(rows, cols) lets an asymmetric matrix silently
  // use a different effective k per direction than requested.
  const size_t kk_src = std::min<size_t>(std::max(k, 1), cols);
  const size_t kk_tgt = std::min<size_t>(std::max(k, 1), rows);

  auto mean_topk = [&](std::vector<float>& values, size_t limit) -> float {
    const size_t take = std::min(limit, values.size());
    std::partial_sort(values.begin(),
                      values.begin() + static_cast<long>(take), values.end(),
                      std::greater<float>());
    float sum = 0.0f;
    for (size_t i = 0; i < take; ++i) sum += values[i];
    return take > 0 ? sum / static_cast<float>(take) : 0.0f;
  };

  // Both neighbourhood means and the final rescaling are per-row /
  // per-column independent, so each phase parallelizes with bit-identical
  // results at any thread count.
  // psi_t(s): mean similarity of source row s to its k nearest targets.
  std::vector<float> psi_src(rows, 0.0f);
  ParallelFor(0, rows, 0, [&](size_t begin, size_t end) {
    std::vector<float> row;
    for (size_t i = begin; i < end; ++i) {
      row.assign(sim.Row(i).begin(), sim.Row(i).end());
      psi_src[i] = mean_topk(row, kk_src);
    }
  });
  // psi_s(t): mean similarity of target column t to its k nearest sources.
  std::vector<float> psi_tgt(cols, 0.0f);
  ParallelFor(0, cols, 0, [&](size_t begin, size_t end) {
    std::vector<float> column(rows);
    for (size_t j = begin; j < end; ++j) {
      for (size_t i = 0; i < rows; ++i) column[i] = sim.At(i, j);
      psi_tgt[j] = mean_topk(column, kk_tgt);
    }
  });
  ParallelFor(0, rows, 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto row = sim.Row(i);
      for (size_t j = 0; j < cols; ++j) {
        row[j] = 2.0f * row[j] - psi_src[i] - psi_tgt[j];
      }
    }
  });
}

}  // namespace openea::align
