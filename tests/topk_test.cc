// Equivalence suite for the streaming top-k similarity engine
// (src/align/topk.h), registered under the `topk` ctest label (the
// sanitize presets run it too). The engine's contract is *bit*-identity
// with the dense SimilarityMatrix (+ ApplyCsls) path on NaN-free inputs,
// for all four metrics, with and without CSLS, at 1 and 8 threads — so
// every comparison below is exact (EXPECT_EQ on floats/doubles), never
// approximate.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/align/candidate_source.h"
#include "src/align/inference.h"
#include "src/align/similarity.h"
#include "src/align/topk.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/eval/metrics.h"
#include "src/math/row_banks.h"
#include "src/math/sharded_table.h"
#include "src/math/vec.h"

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

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// Mean of the `kk` largest non-NaN values, summed largest first — the
/// streaming psi means' accumulation order. 0 when every value is NaN.
float MeanTopNonNan(std::vector<float> values, size_t kk) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](float v) { return std::isnan(v); }),
               values.end());
  std::sort(values.begin(), values.end(), std::greater<float>());
  const size_t take = std::min(kk, values.size());
  float sum = 0.0f;
  for (size_t t = 0; t < take; ++t) sum += values[t];
  return take > 0 ? sum / static_cast<float>(take) : 0.0f;
}

/// Per-cell reference of StreamingTopK: every cell is one MetricCell call,
/// CSLS means come from full rows and columns, and the selection, counts
/// and NaN handling follow the engine's documented contract one cell at a
/// time — no blocks, tiles, bands or threads.
TopKResult CellOracle(const math::Matrix& src, const math::Matrix& tgt,
                      const TopKOptions& options) {
  const size_t rows = src.rows(), cols = tgt.rows(), dim = src.cols();
  const bool cosine = options.metric == DistanceMetric::kCosine;
  const std::vector<float> src_norms =
      cosine ? math::RowNorms(src) : std::vector<float>(rows, 0.0f);
  const std::vector<float> tgt_norms =
      cosine ? math::RowNorms(tgt) : std::vector<float>(cols, 0.0f);
  math::Matrix cells(rows, cols);
  TopKResult result;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      cells.At(i, j) =
          detail::MetricCell(options.metric, src.Row(i).data(), src_norms[i],
                             tgt.Row(j).data(), tgt_norms[j], dim);
      if (options.csls && std::isnan(cells.At(i, j))) ++result.nan_cells;
    }
  }
  if (options.csls) {
    const size_t kk_src =
        std::min<size_t>(std::max(options.csls_k, 1), cols);
    const size_t kk_tgt =
        std::min<size_t>(std::max(options.csls_k, 1), rows);
    std::vector<float> psi_src(rows), psi_tgt(cols);
    for (size_t i = 0; i < rows; ++i) {
      psi_src[i] = MeanTopNonNan(
          std::vector<float>(cells.Row(i).begin(), cells.Row(i).end()),
          kk_src);
    }
    for (size_t j = 0; j < cols; ++j) {
      std::vector<float> column(rows);
      for (size_t i = 0; i < rows; ++i) column[i] = cells.At(i, j);
      psi_tgt[j] = MeanTopNonNan(column, kk_tgt);
    }
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        cells.At(i, j) = 2.0f * cells.At(i, j) - psi_src[i] - psi_tgt[j];
      }
    }
  }
  const bool has_true = !options.true_cols.empty();
  result.rows = rows;
  result.k = options.k;
  for (size_t i = 0; i < rows; ++i) {
    std::vector<TopKEntry> finite;
    for (size_t j = 0; j < cols; ++j) {
      if (std::isnan(cells.At(i, j))) {
        ++result.nan_cells;
      } else {
        finite.push_back({cells.At(i, j), static_cast<int>(j)});
      }
    }
    std::sort(finite.begin(), finite.end(),
              [](const TopKEntry& a, const TopKEntry& b) {
                return detail::TopKBetter(a.value, a.index, b);
              });
    finite.resize(options.k, TopKEntry{});
    result.entries.insert(result.entries.end(), finite.begin(), finite.end());
    if (!has_true) continue;
    const size_t tc = static_cast<size_t>(options.true_cols[i]);
    const float true_val = cells.At(i, tc);
    uint32_t greater = 0, ties = 0;
    for (size_t j = 0; j < cols; ++j) {
      if (j == tc) continue;
      greater += cells.At(i, j) > true_val;
      ties += cells.At(i, j) == true_val;
    }
    if (std::isnan(true_val)) {
      greater = static_cast<uint32_t>(cols);
      ties = 0;
    }
    result.true_sim.push_back(true_val);
    result.num_greater.push_back(greater);
    result.num_ties.push_back(ties);
  }
  return result;
}

void ExpectSameTopK(const TopKResult& got, const TopKResult& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows, want.rows) << what;
  ASSERT_EQ(got.entries.size(), want.entries.size()) << what;
  for (size_t e = 0; e < want.entries.size(); ++e) {
    ASSERT_TRUE(SameBits(got.entries[e].value, want.entries[e].value) &&
                got.entries[e].index == want.entries[e].index)
        << what << " entry " << e << ": (" << got.entries[e].value << ", "
        << got.entries[e].index << ") vs (" << want.entries[e].value << ", "
        << want.entries[e].index << ")";
  }
  ASSERT_EQ(got.true_sim.size(), want.true_sim.size()) << what;
  for (size_t i = 0; i < want.true_sim.size(); ++i) {
    ASSERT_TRUE(SameBits(got.true_sim[i], want.true_sim[i]))
        << what << " true_sim row " << i;
  }
  EXPECT_EQ(got.num_greater, want.num_greater) << what;
  EXPECT_EQ(got.num_ties, want.num_ties) << what;
  EXPECT_EQ(got.nan_cells, want.nan_cells) << what;
}

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "topk_test_XXXXXX";
  EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

TEST(StreamingTopKTest, TiledScanMatchesPerCellOracle) {
  // Source row counts that leave partial 4-row groups and partial 8-row
  // chunks, targets in RAM (one bank) and in a sharded table whose 40-row
  // banks split the column tiles, rows of 19 floats (a vector tail; the
  // sharded copy adds a padded stride), duplicated target rows planting
  // exact ties with the true column, and NaN source and target rows.
  const size_t cols = 97, dim = 19;
  math::Matrix tgt = RandomMatrix(cols, dim, 5);
  for (const size_t dup : {size_t{10}, size_t{50}, size_t{96}}) {
    std::copy(tgt.Row(3).begin(), tgt.Row(3).end(), tgt.Row(dup).begin());
  }
  for (float& v : tgt.Row(60)) v = std::numeric_limits<float>::quiet_NaN();
  const std::string dir = MakeTempDir();
  math::ShardedTableOptions shard_options;
  shard_options.rows_per_bank = 40;
  ASSERT_TRUE(
      math::WriteShardedTable(dir + "/tgt.shard", tgt, shard_options).ok());
  auto table = math::ShardedEmbeddingTable::Open(dir + "/tgt.shard");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const math::RowBanks sharded(*std::move(table));

  for (const size_t rows : {1, 3, 5, 13, 4099}) {
    math::Matrix src = RandomMatrix(rows, dim, 100 + rows);
    if (rows > 4) {
      for (float& v : src.Row(4)) v = std::numeric_limits<float>::quiet_NaN();
    }
    TopKOptions options;
    options.true_cols.resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      // Every third row's counterpart is target 3 or a target tied with it;
      // row 1 (when present) points at the NaN target.
      options.true_cols[i] = static_cast<int>(
          i == 1 ? 60 : (i % 3 == 0 ? (i % 2 == 0 ? 3 : 50) : i % cols));
    }
    for (const DistanceMetric metric : kAllMetrics) {
      options.metric = metric;
      for (const bool csls : {false, true}) {
        options.csls = csls;
        for (const size_t k : {0, 1, 10}) {
          options.k = k;
          const TopKResult want = CellOracle(src, tgt, options);
          for (const size_t col_block : {1, 7, 256, 5000}) {
            options.col_block = col_block;
            for (const int threads : {1, 8}) {
              ThreadGuard guard(threads);
              const std::string what =
                  std::string(DistanceMetricName(metric)) +
                  " rows=" + std::to_string(rows) +
                  " csls=" + std::to_string(csls) +
                  " k=" + std::to_string(k) +
                  " col_block=" + std::to_string(col_block) +
                  " threads=" + std::to_string(threads);
              ExpectSameTopK(StreamingTopK(src, tgt, options), want,
                             what + " in RAM");
              ExpectSameTopK(StreamingTopK(src, sharded, options), want,
                             what + " sharded");
            }
          }
        }
      }
    }
  }
}

/// Per-row reference of the IVF coarse quantizer's build: the seeded
/// init, Lloyd iterations that assign each row by one MetricCell per
/// centroid, and the serial double-precision centroid update.
struct IvfReference {
  math::Matrix centroids;
  std::vector<int> assign;
};

IvfReference ReferenceIvfBuild(const math::Matrix& rows,
                               const CandidateSourceConfig& config,
                               size_t lists) {
  const size_t n = rows.rows(), dim = rows.cols();
  const bool cosine = config.metric == DistanceMetric::kCosine;
  IvfReference ref;
  ref.centroids = math::Matrix(lists, dim);
  ref.assign.assign(n, 0);
  Rng rng(config.seed);
  std::vector<int> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 0);
  rng.Shuffle(seeds);
  for (size_t c = 0; c < lists; ++c) {
    std::copy(rows.Row(seeds[c]).begin(), rows.Row(seeds[c]).end(),
              ref.centroids.Row(c).begin());
  }
  for (int iter = 0; iter < config.ivf_iters; ++iter) {
    const std::vector<float> centroid_norms = math::RowNorms(ref.centroids);
    for (size_t r = 0; r < n; ++r) {
      const float nr = cosine ? math::L2Norm(rows.Row(r)) : 0.0f;
      int best = 0;
      float best_value = 0.0f;
      for (size_t c = 0; c < lists; ++c) {
        const float v = detail::MetricCell(
            config.metric, rows.Row(r).data(), nr, ref.centroids.Row(c).data(),
            cosine ? centroid_norms[c] : 0.0f, dim);
        if (c == 0 || v > best_value) {
          best = static_cast<int>(c);
          best_value = v;
        }
      }
      ref.assign[r] = best;
    }
    std::vector<double> sums(lists * dim, 0.0);
    std::vector<uint32_t> counts(lists, 0);
    for (size_t r = 0; r < n; ++r) {
      const size_t c = static_cast<size_t>(ref.assign[r]);
      for (size_t d = 0; d < dim; ++d) sums[c * dim + d] += rows.At(r, d);
      ++counts[c];
    }
    for (size_t c = 0; c < lists; ++c) {
      if (counts[c] == 0) continue;
      for (size_t d = 0; d < dim; ++d) {
        ref.centroids.At(c, d) =
            static_cast<float>(sums[c * dim + d] / counts[c]);
      }
    }
  }
  return ref;
}

TEST(StreamingTopKTest, IvfBuildMatchesPerRowReference) {
  // The k-means assignment scores each 8-row chunk against all centroids
  // in one multi-row block. Probing one list with k = N returns exactly
  // that list's members, best first, so the index's lists and its probe
  // choice (which reads the final centroids) are visible: both must be the
  // per-row reference's.
  const size_t n = 300, dim = 19, lists = 7;
  const math::Matrix rows = RandomMatrix(n, dim, 31);
  for (const DistanceMetric metric : kAllMetrics) {
    CandidateSourceConfig config;
    config.kind = CandidateSourceKind::kAnnIvf;
    config.metric = metric;
    config.ivf_lists = lists;
    config.ivf_nprobe = 1;
    config.ivf_iters = 4;
    const IvfReference ref = ReferenceIvfBuild(rows, config, lists);
    const std::vector<float> centroid_norms = math::RowNorms(ref.centroids);
    const std::vector<float> row_norms = math::RowNorms(rows);
    for (const int threads : {1, 8}) {
      ThreadGuard guard(threads);
      auto source = CreateCandidateSourceOrDie(config);
      ASSERT_TRUE(source->Index(rows).ok());
      const TopKResult got = source->TopK(rows, n);
      for (size_t q = 0; q < n; ++q) {
        // The reference probe: the best centroid under the selection order.
        TopKEntry probe;
        for (size_t c = 0; c < lists; ++c) {
          const float v = detail::MetricCell(
              metric, rows.Row(q).data(), row_norms[q],
              ref.centroids.Row(c).data(), centroid_norms[c], dim);
          if (detail::TopKBetter(v, static_cast<int>(c), probe)) {
            probe = {v, static_cast<int>(c)};
          }
        }
        std::vector<int> members;
        for (size_t r = 0; r < n; ++r) {
          if (ref.assign[r] == probe.index) members.push_back(r);
        }
        std::vector<int> returned;
        for (const TopKEntry& e : got.Row(q)) {
          if (e.index >= 0) returned.push_back(e.index);
        }
        std::sort(returned.begin(), returned.end());
        ASSERT_EQ(returned, members)
            << DistanceMetricName(metric) << " query " << q
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace openea::align
