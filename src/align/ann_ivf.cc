#include "src/align/ann_ivf.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/math/vec.h"

namespace openea::align {
namespace {

/// Same fixed row grain as the streaming engine / the other sources.
constexpr size_t kQueryGrain = 8;

class AnnIvfSource final : public CandidateSource {
 public:
  explicit AnnIvfSource(const CandidateSourceConfig& config)
      : CandidateSource(config) {}

  const char* Name() const override { return "ann_ivf"; }

  TopKResult TopK(const math::Matrix& queries, size_t k) const override {
    OPENEA_CHECK(indexed_) << "AnnIvfSource::TopK before Index";
    OPENEA_CHECK_EQ(queries.cols(), dim());
    TopKResult result;
    result.rows = queries.rows();
    result.k = k;
    result.entries.assign(queries.rows() * k, TopKEntry{});
    if (queries.rows() == 0 || num_lists_ == 0) return result;

    telemetry::ScopedSpan span("ann_ivf_topk");
    const size_t dim = this->dim();
    const size_t nprobe = std::min(config_.ivf_nprobe, num_lists_);
    const std::vector<float> query_norms =
        config_.metric == DistanceMetric::kCosine ? math::RowNorms(queries)
                                                  : std::vector<float>();
    std::atomic<uint64_t> scanned{0};
    std::atomic<uint64_t> nan_cells{0};
    ParallelFor(0, queries.rows(), kQueryGrain, [&](size_t begin, size_t end) {
      std::vector<float> centroid_sims(num_lists_);
      std::vector<TopKEntry> probes(nprobe);
      std::vector<TopKEntry> heap(std::max<size_t>(k, 1));
      std::vector<float> cell_buf;
      uint64_t local_scanned = 0;
      uint64_t local_nan = 0;
      for (size_t i = begin; i < end; ++i) {
        const auto q = queries.Row(i);
        const float nq = query_norms.empty() ? 0.0f : query_norms[i];
        // Rank the coarse quantizer: one batched call over all centroids,
        // probe selection under the shared total order.
        detail::MetricBlock(
            config_.metric, q.data(), dim, &nq, 1, centroids_.Row(0).data(),
            dim, centroid_norms_.empty() ? nullptr : centroid_norms_.data(),
            num_lists_, centroid_sims.data(), num_lists_, dim);
        size_t probe_count = 0;
        for (size_t c = 0; c < num_lists_; ++c) {
          if (std::isnan(centroid_sims[c])) continue;
          detail::TopKInsert(probes.data(), probe_count, nprobe,
                             centroid_sims[c], static_cast<int>(c));
        }
        size_t count = 0;
        for (size_t p = 0; p < probe_count; ++p) {
          const size_t list = static_cast<size_t>(probes[p].index);
          const size_t hi = list_offsets_[list + 1];
          local_scanned += hi - list_offsets_[list];
          // Scan the list's packed slots bank by bank: a list may straddle a
          // bank boundary, and cell values do not depend on the batching.
          for (size_t pos = list_offsets_[list]; pos < hi;) {
            auto bank = packed_.Map(packed_.BankOfRow(pos));
            OPENEA_CHECK(bank.ok()) << bank.status().ToString();
            const size_t chunk_end =
                std::min(hi, bank->first_row() + bank->rows());
            cell_buf.resize(chunk_end - pos);
            detail::MetricBlock(
                config_.metric, q.data(), dim, &nq, 1, bank->Row(pos),
                bank->stride(),
                packed_norms_.empty() ? nullptr : packed_norms_.data() + pos,
                chunk_end - pos, cell_buf.data(), chunk_end - pos, dim);
            for (size_t s = pos; s < chunk_end; ++s) {
              const float v = cell_buf[s - pos];
              if (std::isnan(v)) {
                ++local_nan;
                continue;
              }
              if (k > 0) {
                detail::TopKInsert(heap.data(), count, k, v, packed_ids_[s]);
              }
            }
            pos = chunk_end;
          }
        }
        if (k > 0) {
          TopKEntry* out = result.entries.data() + i * k;
          for (size_t t = 0; t < count; ++t) out[t] = heap[t];
        }
      }
      scanned.fetch_add(local_scanned, std::memory_order_relaxed);
      if (local_nan > 0) {
        nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
      }
    });
    result.nan_cells = nan_cells.load(std::memory_order_relaxed);
    telemetry::IncrCounter("cand/ann_ivf/queries", queries.rows());
    telemetry::IncrCounter("cand/ann_ivf/scanned",
                           scanned.load(std::memory_order_relaxed));
    telemetry::IncrCounter("cand/ann_ivf/centroid_scans",
                           queries.rows() * num_lists_);
    if (result.nan_cells > 0) {
      telemetry::IncrCounter("cand/ann_ivf/nan_cells", result.nan_cells);
    }
    return result;
  }

 private:
  /// One k-means build over the target banks, in RAM or on disk. Only the
  /// packed list layout differs: a matrix for in-RAM targets, a sidecar
  /// sharded table (`<table path>.ivfpack`) for sharded ones, so a sharded
  /// build keeps no O(N * dim) state resident — only the id permutation and
  /// the per-row norms.
  Status Build() override {
    telemetry::ScopedSpan span("ann_ivf_build");
    const size_t n = targets_.rows();
    const size_t dim = targets_.dim();
    const bool cosine = config_.metric == DistanceMetric::kCosine;

    // ceil(sqrt(N)) lists by default: balances the `lists` centroid scan
    // against the ~nprobe*N/lists list scan.
    size_t lists = config_.ivf_lists;
    if (lists == 0 && n > 0) {
      lists = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
    }
    lists = std::min(std::max<size_t>(lists, 1), std::max<size_t>(n, 1));
    num_lists_ = n > 0 ? lists : 0;

    centroids_ = math::Matrix(num_lists_, dim);
    packed_ = math::RowBanks();
    packed_ids_.assign(n, 0);
    list_offsets_.assign(num_lists_ + 1, 0);
    packed_norms_.clear();
    centroid_norms_.clear();
    if (n == 0) return Status::OK();

    // Seeded k-means init: `lists` distinct rows, chosen by a deterministic
    // shuffle of the row indices.
    Rng rng(config_.seed);
    std::vector<int> seeds(n);
    std::iota(seeds.begin(), seeds.end(), 0);
    rng.Shuffle(seeds);
    for (size_t c = 0; c < num_lists_; ++c) {
      Status status = targets_.ReadRow(static_cast<size_t>(seeds[c]),
                                       centroids_.Row(c));
      if (!status.ok()) return status;
    }

    // Lloyd iterations. Assignment runs in parallel (disjoint writes per
    // point, ties toward the lower centroid id); the centroid update
    // accumulates serially in global row order — both deterministic at any
    // thread count and any bank height.
    std::vector<int> assign(n, 0);
    for (int iter = 0; iter < config_.ivf_iters; ++iter) {
      if (cosine) centroid_norms_ = math::RowNorms(centroids_);
      Status walked =
          targets_.ForEachBank([&](const math::RowBanks::Bank& bank) {
        ParallelFor(0, bank.rows(), kQueryGrain, [&](size_t begin, size_t end) {
          // The chunk's rows against every centroid in one multi-row block.
          const size_t chunk = end - begin;
          std::vector<float> sims(chunk * num_lists_);
          std::vector<float> norms(cosine ? chunk : 0);
          const float* rows = bank.values() + begin * bank.stride();
          for (size_t r = 0; cosine && r < chunk; ++r) {
            norms[r] = math::L2Norm(
                std::span<const float>(rows + r * bank.stride(), dim));
          }
          detail::MetricBlock(
              config_.metric, rows, bank.stride(), norms.data(), chunk,
              centroids_.Row(0).data(), dim,
              centroid_norms_.empty() ? nullptr : centroid_norms_.data(),
              num_lists_, sims.data(), num_lists_, dim);
          for (size_t r = 0; r < chunk; ++r) {
            const float* row_sims = sims.data() + r * num_lists_;
            int best = 0;
            float best_value = row_sims[0];
            for (size_t c = 1; c < num_lists_; ++c) {
              // NaN sims never beat: the comparison is false, so the point
              // stays on the lowest finite (or 0th) centroid.
              if (row_sims[c] > best_value) {
                best = static_cast<int>(c);
                best_value = row_sims[c];
              }
            }
            assign[bank.first_row() + begin + r] = best;
          }
        });
      });
      if (!walked.ok()) return walked;
      std::vector<double> sums(num_lists_ * dim, 0.0);
      std::vector<uint32_t> counts(num_lists_, 0);
      walked = targets_.ForEachBank([&](const math::RowBanks::Bank& bank) {
        for (size_t r = 0; r < bank.rows(); ++r) {
          const size_t c = static_cast<size_t>(assign[bank.first_row() + r]);
          const float* row = bank.values() + r * bank.stride();
          double* acc = sums.data() + c * dim;
          for (size_t d = 0; d < dim; ++d) acc[d] += row[d];
          ++counts[c];
        }
      });
      if (!walked.ok()) return walked;
      for (size_t c = 0; c < num_lists_; ++c) {
        if (counts[c] == 0) continue;  // Empty list keeps its centroid.
        auto row = centroids_.Row(c);
        const double* acc = sums.data() + c * dim;
        for (size_t d = 0; d < dim; ++d) {
          row[d] = static_cast<float>(acc[d] / counts[c]);
        }
      }
    }

    // Inverted-list layout: rows regrouped contiguously per list, members
    // in ascending original id, so a probe is one batched kernel call per
    // bank it touches.
    std::vector<uint32_t> counts(num_lists_, 0);
    for (size_t i = 0; i < n; ++i) ++counts[static_cast<size_t>(assign[i])];
    for (size_t c = 0; c < num_lists_; ++c) {
      list_offsets_[c + 1] = list_offsets_[c] + counts[c];
    }
    std::vector<size_t> cursor(list_offsets_.begin(),
                               list_offsets_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      packed_ids_[cursor[static_cast<size_t>(assign[i])]++] =
          static_cast<int>(i);
    }
    std::shared_ptr<math::Matrix> packed;
    std::unique_ptr<math::ShardedTableWriter> writer;
    std::string packed_path;
    if (const math::ShardedEmbeddingTable* table = targets_.table()) {
      packed_path = table->path() + ".ivfpack";
      math::ShardedTableOptions pack_opts;
      pack_opts.rows_per_bank = targets_.bank_rows();
      auto created =
          math::ShardedTableWriter::Create(packed_path, n, dim, pack_opts);
      if (!created.ok()) return created.status();
      writer = *std::move(created);
    } else {
      packed = std::make_shared<math::Matrix>(n, dim);
    }
    const std::vector<float> norms =
        cosine ? math::RowNorms(targets_) : std::vector<float>();
    if (cosine) packed_norms_.resize(n);
    std::vector<float> spill(dim);
    for (size_t slot = 0; slot < n; ++slot) {
      const size_t id = static_cast<size_t>(packed_ids_[slot]);
      const std::span<float> row =
          packed ? packed->Row(slot) : std::span<float>(spill);
      Status status = targets_.ReadRow(id, row);
      if (status.ok() && writer) status = writer->AppendRow(row);
      if (!status.ok()) return status;
      if (cosine) packed_norms_[slot] = norms[id];
    }
    if (writer) {
      Status status = writer->Finalize();
      if (!status.ok()) return status;
      auto opened = math::ShardedEmbeddingTable::Open(packed_path);
      if (!opened.ok()) return opened.status();
      packed_ = math::RowBanks(*std::move(opened));
      telemetry::IncrCounter("cand/ann_ivf/sharded_builds");
    } else {
      packed_ = math::RowBanks(std::shared_ptr<const math::Matrix>(packed));
    }
    if (cosine) centroid_norms_ = math::RowNorms(centroids_);
    telemetry::SetGauge("ann/lists", static_cast<double>(num_lists_));
    return Status::OK();
  }

  size_t num_lists_ = 0;
  math::Matrix centroids_;
  /// Target rows regrouped contiguously per list (ascending original id
  /// within a list); packed_ids_[slot] maps back to the original row.
  math::RowBanks packed_;
  std::vector<int> packed_ids_;
  std::vector<size_t> list_offsets_;  // num_lists_ + 1 entries.
  std::vector<float> packed_norms_;    // Cosine only.
  std::vector<float> centroid_norms_;  // Cosine only.
};

}  // namespace

namespace internal {

std::unique_ptr<CandidateSource> MakeAnnIvfSource(
    const CandidateSourceConfig& config) {
  return std::make_unique<AnnIvfSource>(config);
}

}  // namespace internal
}  // namespace openea::align
