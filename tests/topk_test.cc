// Equivalence suite for the streaming top-k similarity engine
// (src/align/topk.h), registered under the `topk` ctest label (the
// sanitize presets run it too). The engine's contract is *bit*-identity
// with the dense SimilarityMatrix (+ ApplyCsls) path on NaN-free inputs,
// for all four metrics, with and without CSLS, at 1 and 8 threads — so
// every comparison below is exact (EXPECT_EQ on floats/doubles), never
// approximate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/align/inference.h"
#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/eval/metrics.h"

namespace openea::align {
namespace {

math::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  math::Matrix m(rows, cols);
  m.FillUniform(rng, 1.0f);
  return m;
}

/// Restores the serial default when a test body returns or fails.
struct ThreadGuard {
  explicit ThreadGuard(int threads) { SetThreads(threads); }
  ~ThreadGuard() { SetThreads(1); }
};

/// Dense reference: the exact path the streaming engine replaces.
math::Matrix DenseSim(const math::Matrix& src, const math::Matrix& tgt,
                      DistanceMetric metric, bool csls, int csls_k) {
  math::Matrix sim = SimilarityMatrix(src, tgt, metric);
  if (csls) ApplyCsls(sim, csls_k);
  return sim;
}

/// Dense top-k of one row under the engine's selection order
/// (value desc, index asc).
std::vector<TopKEntry> DenseRowTopK(std::span<const float> row, size_t k) {
  std::vector<TopKEntry> entries;
  entries.reserve(row.size());
  for (size_t j = 0; j < row.size(); ++j) {
    entries.push_back({row[j], static_cast<int>(j)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.index < b.index;
            });
  entries.resize(std::min(k, entries.size()), TopKEntry{});
  return entries;
}

const DistanceMetric kAllMetrics[] = {
    DistanceMetric::kCosine, DistanceMetric::kEuclidean,
    DistanceMetric::kManhattan, DistanceMetric::kInner};

TEST(StreamingTopKTest, BitIdenticalToDenseAllMetricsCslsThreads) {
  // Asymmetric (rows != cols) and not a multiple of any block size, with a
  // small col_block to exercise tile boundaries.
  const size_t rows = 37, cols = 53, dim = 16, k = 7;
  const math::Matrix src = RandomMatrix(rows, dim, 11);
  const math::Matrix tgt = RandomMatrix(cols, dim, 22);
  for (DistanceMetric metric : kAllMetrics) {
    for (bool csls : {false, true}) {
      const math::Matrix sim = DenseSim(src, tgt, metric, csls, 10);
      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        TopKOptions options;
        options.k = k;
        options.metric = metric;
        options.csls = csls;
        options.col_block = 16;
        options.true_cols.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          options.true_cols[i] = static_cast<int>(i % cols);
        }
        const TopKResult result = StreamingTopK(src, tgt, options);
        ASSERT_EQ(result.rows, rows);
        ASSERT_EQ(result.k, k);
        EXPECT_EQ(result.nan_cells, 0u);
        for (size_t i = 0; i < rows; ++i) {
          const auto dense_row = sim.Row(i);
          const auto dense_topk = DenseRowTopK(dense_row, k);
          const auto streamed = result.Row(i);
          for (size_t t = 0; t < k; ++t) {
            EXPECT_EQ(streamed[t].value, dense_topk[t].value)
                << DistanceMetricName(metric) << " csls=" << csls
                << " threads=" << threads << " row=" << i << " t=" << t;
            EXPECT_EQ(streamed[t].index, dense_topk[t].index)
                << DistanceMetricName(metric) << " csls=" << csls
                << " threads=" << threads << " row=" << i << " t=" << t;
          }
          // True-column similarity and exact greater/tie counts.
          const int tc = options.true_cols[i];
          const float true_sim = dense_row[static_cast<size_t>(tc)];
          EXPECT_EQ(result.true_sim[i], true_sim);
          uint32_t greater = 0, ties = 0;
          for (size_t j = 0; j < cols; ++j) {
            if (static_cast<int>(j) == tc) continue;
            if (dense_row[j] > true_sim) {
              ++greater;
            } else if (dense_row[j] == true_sim) {
              ++ties;
            }
          }
          EXPECT_EQ(result.num_greater[i], greater);
          EXPECT_EQ(result.num_ties[i], ties);
        }
      }
    }
  }
}

TEST(StreamingTopKTest, GreedyBitIdenticalToDensePath) {
  const math::Matrix src = RandomMatrix(41, 24, 5);
  const math::Matrix tgt = RandomMatrix(29, 24, 6);
  for (DistanceMetric metric : kAllMetrics) {
    for (bool csls : {false, true}) {
      math::Matrix sim = DenseSim(src, tgt, metric, csls, 10);
      const std::vector<int> dense_match = GreedyMatch(sim);
      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        TopKOptions options;
        options.k = 1;
        options.metric = metric;
        options.csls = csls;
        options.csls_k = 10;
        const TopKResult top1 = StreamingTopK(src, tgt, options);
        std::vector<int> match(src.rows());
        for (size_t i = 0; i < src.rows(); ++i) match[i] = top1.BestIndex(i);
        EXPECT_EQ(match, dense_match)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
      }
    }
  }
}

TEST(StreamingTopKTest, InferAlignmentOverloadMatchesDenseAllStrategies) {
  const math::Matrix src = RandomMatrix(20, 16, 7);
  const math::Matrix tgt = RandomMatrix(20, 16, 8);
  const math::Matrix sim =
      SimilarityMatrix(src, tgt, DistanceMetric::kCosine);
  for (auto strategy :
       {InferenceStrategy::kGreedy, InferenceStrategy::kGreedyCsls,
        InferenceStrategy::kStableMarriage,
        InferenceStrategy::kStableMarriageCsls,
        InferenceStrategy::kKuhnMunkres}) {
    CandidateSourceConfig config;
    config.csls = strategy == InferenceStrategy::kGreedyCsls;
    auto source = CreateCandidateSourceOrDie(config);
    ASSERT_TRUE(source->Index(tgt).ok());
    EXPECT_EQ(InferAlignment(*source, src, strategy),
              InferAlignment(sim, strategy))
        << InferenceStrategyName(strategy);
  }
}

TEST(StreamingTopKTest, PadsRowsWhenFewerCandidatesThanK) {
  const math::Matrix src = RandomMatrix(4, 8, 3);
  const math::Matrix tgt = RandomMatrix(2, 8, 4);
  TopKOptions options;
  options.k = 5;
  const TopKResult result = StreamingTopK(src, tgt, options);
  for (size_t i = 0; i < 4; ++i) {
    const auto row = result.Row(i);
    EXPECT_GE(row[0].index, 0);
    EXPECT_GE(row[1].index, 0);
    for (size_t t = 2; t < 5; ++t) {
      EXPECT_EQ(row[t].index, -1);
      EXPECT_EQ(row[t].value, -std::numeric_limits<float>::infinity());
    }
  }
}

TEST(StreamingTopKTest, NanCellsAreSkippedDeterministically) {
  math::Matrix src = RandomMatrix(3, 4, 9);
  math::Matrix tgt = RandomMatrix(5, 4, 10);
  // Poison target row 2: every similarity against it is NaN.
  for (float& v : tgt.Row(2)) v = std::numeric_limits<float>::quiet_NaN();
  // Poison source row 1: all of its candidates are NaN.
  for (float& v : src.Row(1)) v = std::numeric_limits<float>::quiet_NaN();
  TopKOptions options;
  options.k = 5;
  options.metric = DistanceMetric::kEuclidean;
  const TopKResult result = StreamingTopK(src, tgt, options);
  // Rows 0 and 2 lose exactly the poisoned target; row 1 loses everything.
  EXPECT_EQ(result.nan_cells, 5u + 2u);
  EXPECT_EQ(result.BestIndex(1), -1);
  for (size_t i : {size_t{0}, size_t{2}}) {
    EXPECT_GE(result.BestIndex(i), 0);
    for (const TopKEntry& e : result.Row(i)) {
      EXPECT_NE(e.index, 2) << "row " << i << " kept a NaN candidate";
    }
  }
}

TEST(StreamingTopKTest, NanTrueColumnRanksLast) {
  math::Matrix src = RandomMatrix(2, 4, 13);
  const math::Matrix tgt = RandomMatrix(6, 4, 14);
  for (float& v : src.Row(0)) v = std::numeric_limits<float>::quiet_NaN();
  TopKOptions options;
  options.k = 0;
  options.metric = DistanceMetric::kInner;
  options.true_cols = {0, 1};
  const TopKResult result = StreamingTopK(src, tgt, options);
  EXPECT_TRUE(std::isnan(result.true_sim[0]));
  EXPECT_EQ(result.num_greater[0], 6u);  // Worst possible rank.
  EXPECT_EQ(result.num_ties[0], 0u);
  EXPECT_LT(result.num_greater[1], 6u);  // Clean row unaffected.
}

/// Replicates the dense evaluation path EvaluateRanking used before the
/// streaming engine: materialize the full test similarity matrix, apply
/// CSLS, mid-rank every pair, and accumulate in the same 64-row chunk
/// order.
eval::RankingMetrics DenseEvaluateRanking(const core::AlignmentModel& model,
                                          const kg::Alignment& pairs,
                                          DistanceMetric metric, bool csls) {
  std::vector<kg::EntityId> lefts, rights;
  for (const auto& p : pairs) {
    lefts.push_back(p.left);
    rights.push_back(p.right);
  }
  math::Matrix sim = SimilarityMatrix(eval::GatherRows(model.emb1, lefts),
                                      eval::GatherRows(model.emb2, rights),
                                      metric);
  if (csls) ApplyCsls(sim);
  const size_t n = pairs.size();
  double hits1 = 0, hits5 = 0, mr = 0, mrr = 0;
  for (size_t chunk = 0; chunk < n; chunk += 64) {
    double c_hits1 = 0, c_hits5 = 0, c_mr = 0, c_mrr = 0;
    for (size_t i = chunk; i < std::min(n, chunk + 64); ++i) {
      const auto row = sim.Row(i);
      const float true_sim = row[i];
      size_t greater = 0, ties = 0;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (row[j] > true_sim) {
          ++greater;
        } else if (row[j] == true_sim) {
          ++ties;
        }
      }
      const double rank = 1.0 + static_cast<double>(greater) +
                          0.5 * static_cast<double>(ties);
      if (rank <= 1.0) c_hits1 += 1;
      if (rank <= 5.0) c_hits5 += 1;
      c_mr += rank;
      c_mrr += 1.0 / rank;
    }
    hits1 += c_hits1;
    hits5 += c_hits5;
    mr += c_mr;
    mrr += c_mrr;
  }
  eval::RankingMetrics metrics;
  metrics.hits1 = hits1 / static_cast<double>(n);
  metrics.hits5 = hits5 / static_cast<double>(n);
  metrics.mr = mr / static_cast<double>(n);
  metrics.mrr = mrr / static_cast<double>(n);
  return metrics;
}

TEST(StreamingTopKTest, EvaluateRankingBitIdenticalToDensePath) {
  const size_t n = 150, dim = 16;
  Rng rng(17);
  core::AlignmentModel model;
  model.emb1 = math::Matrix(n, dim);
  model.emb2 = math::Matrix(n, dim);
  model.emb1.FillUniform(rng, 1.0f);
  model.emb2.FillUniform(rng, 1.0f);
  // Half the pairs embed identically so hits1 is non-trivial.
  for (size_t i = 0; i < n / 2; ++i) {
    std::copy(model.emb1.Row(i).begin(), model.emb1.Row(i).end(),
              model.emb2.Row(i).begin());
  }
  kg::Alignment pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back(
        {static_cast<kg::EntityId>(i), static_cast<kg::EntityId>(i)});
  }
  for (DistanceMetric metric : kAllMetrics) {
    for (bool csls : {false, true}) {
      const eval::RankingMetrics dense =
          DenseEvaluateRanking(model, pairs, metric, csls);
      for (int threads : {1, 8}) {
        ThreadGuard guard(threads);
        const eval::RankingMetrics streamed =
            eval::EvaluateRanking(model, pairs, metric, csls);
        EXPECT_EQ(streamed.hits1, dense.hits1)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
        EXPECT_EQ(streamed.hits5, dense.hits5)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
        EXPECT_EQ(streamed.mr, dense.mr)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
        EXPECT_EQ(streamed.mrr, dense.mrr)
            << DistanceMetricName(metric) << " csls=" << csls
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace openea::align
