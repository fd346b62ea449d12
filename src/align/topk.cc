#include "src/align/topk.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/telemetry.h"

namespace openea::align {
namespace {

/// Fixed row grain of the scan pass. Fixed (never derived from the thread
/// count) so the chunk layout — and with it every telemetry block count —
/// is identical at any thread count.
constexpr size_t kRowGrain = 8;
/// Query rows per tile-kernel call: the 4-query height of the AVX2 register
/// tile (src/math/kernels_avx2.cc), two groups per row chunk.
constexpr size_t kGroupRows = 4;
/// Default column-tile width: 256 targets x 64 dims x 4 bytes = 64 KiB of
/// target rows, which the row groups of a chunk reuse from L1/L2 before the
/// scan moves to the next tile, so a bank is read once per row chunk rather
/// than once per row. The 4 x 256 cell block of a row group (4 KiB) stays
/// in L1 for the epilogue.
constexpr size_t kDefaultColBlock = 256;
/// Fixed number of row bands of the CSLS psi pass. Band-local per-column
/// top-k buffers cost kPsiBands * cols * csls_k floats, keeping the pass at
/// O(N * k) memory with a small constant.
constexpr size_t kPsiBands = 8;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// The CSLS adjustment, evaluated with the same float expression (and
/// operation order) as `ApplyCsls`: 2 sim - psi_src - psi_tgt.
inline float CslsAdjust(float sim, float psi_src, float psi_tgt) {
  return 2.0f * sim - psi_src - psi_tgt;
}

/// Sorted-ascending bounded insert of a bare value (the k-largest multiset
/// is uniquely defined, so value-only buffers merge deterministically in
/// any order). vals[0] is the current worst kept value.
inline void InsertValue(float* vals, uint32_t& count, size_t k, float v) {
  if (count == k) {
    if (!(v > vals[0])) return;
    size_t pos = 0;
    while (pos + 1 < k && vals[pos + 1] < v) {
      vals[pos] = vals[pos + 1];
      ++pos;
    }
    vals[pos] = v;
    return;
  }
  size_t pos = count;
  while (pos > 0 && vals[pos - 1] > v) {
    vals[pos] = vals[pos - 1];
    --pos;
  }
  vals[pos] = v;
  ++count;
}

/// Mean of an ascending value buffer summed in descending order — the same
/// accumulation order as the dense `ApplyCsls` mean over a
/// partial_sort-descending prefix, so the float result matches bit for bit.
inline float MeanDescending(const float* vals, uint32_t count) {
  if (count == 0) return 0.0f;
  float sum = 0.0f;
  for (uint32_t i = count; i-- > 0;) sum += vals[i];
  return sum / static_cast<float>(count);
}

/// Number of NaN cells in v[0..n). Branch-free, so it vectorizes.
inline uint64_t CountNan(const float* v, size_t n) {
  uint32_t nans = 0;
  for (size_t j = 0; j < n; ++j) nans += v[j] != v[j];
  return nans;
}

/// v[j] = CslsAdjust(v[j], psi_src, psi_tgt[j]) over a row of cells.
inline void AdjustRow(float* v, size_t n, float psi_src,
                      const float* psi_tgt) {
  for (size_t j = 0; j < n; ++j) v[j] = CslsAdjust(v[j], psi_src, psi_tgt[j]);
}

/// Adds to `greater` / `ties` the cells of v[0..n) strictly greater than /
/// equal to `than`. Branch-free: a NaN cell (or a NaN `than`) adds to
/// neither, as a comparison with NaN is false.
inline void CountAgainst(const float* v, size_t n, float than,
                         uint32_t& greater, uint32_t& ties) {
  uint32_t g = 0, t = 0;
  for (size_t j = 0; j < n; ++j) {
    g += v[j] > than;
    t += v[j] == than;
  }
  greater += g;
  ties += t;
}

/// The value a candidate must reach to enter a sorted top-k value buffer:
/// its worst kept value once full, else -inf (any non-NaN value enters).
inline float Floor(const float* worst, uint32_t count, size_t k) {
  return count == k ? *worst : kNegInf;
}

/// Four floats, and four comparison results, as GCC/Clang generic vectors
/// (the baseline x86-64 ISA's register width: wider generic vectors are
/// split lane by lane).
typedef float Lanes4 __attribute__((vector_size(16)));
typedef int32_t Mask4 __attribute__((vector_size(16)));

/// Pass one's reject for the 8 cells v[0..8): true when some cell reaches
/// the row floor or its column's floor. Branch-free over the lanes, so the
/// common all-rejected block costs four vector compares; a NaN reaches no
/// floor.
inline bool AnyReaches(const float* v, float row_floor,
                       const float* col_floors) {
  Mask4 hits = {};
  for (size_t half = 0; half < 8; half += 4) {
    Lanes4 cells, floors;
    std::memcpy(&cells, v + half, sizeof(cells));
    std::memcpy(&floors, col_floors + half, sizeof(floors));
    hits |= (cells >= row_floor) | (cells >= floors);
  }
  uint64_t words[2];
  std::memcpy(words, &hits, sizeof(words));
  return (words[0] | words[1]) != 0;
}

/// Pass one of streaming CSLS: one walk over the target banks fills
/// per-row top-k value buffers (for psi_src, the mean top-k similarity of
/// each source row) and per-column ones local to a fixed band layout of the
/// source rows; a second, cheap pass merges the band buffers per column into
/// psi_tgt. The band state persists across banks, and nothing of size
/// rows x cols is ever allocated.
void ComputeCslsPsi(const math::Matrix& src, const math::RowBanks& tgt,
                    DistanceMetric metric, int csls_k, size_t col_block,
                    const std::vector<float>& src_norms,
                    const std::vector<float>& tgt_norms,
                    std::vector<float>& psi_src, std::vector<float>& psi_tgt,
                    std::atomic<uint64_t>& nan_cells) {
  const size_t rows = src.rows();
  const size_t cols = tgt.rows();
  const size_t dim = tgt.dim();
  // Per-direction neighbourhood clamp (mirrors the ApplyCsls fix): psi_src
  // ranks over `cols` candidates, psi_tgt over `rows`.
  const size_t kk_src = std::min<size_t>(std::max(csls_k, 1), cols);
  const size_t kk_tgt = std::min<size_t>(std::max(csls_k, 1), rows);
  psi_src.assign(rows, 0.0f);
  psi_tgt.assign(cols, 0.0f);
  if (rows == 0 || cols == 0) return;

  const size_t num_bands = std::min(kPsiBands, rows);
  const size_t band_rows = (rows + num_bands - 1) / num_bands;
  // Band-local per-column and per-row top-k value buffers plus fill counts,
  // and each column's current floor (Floor of its buffer).
  struct Band {
    std::vector<float> col_vals, row_vals, col_floors;
    std::vector<uint32_t> col_counts, row_counts;
  };
  std::vector<Band> bands(num_bands);

  const Status walked = tgt.ForEachBank([&](const math::RowBanks::Bank& bank) {
    ParallelFor(0, num_bands, 1, [&](size_t bb, size_t be) {
      const size_t tile = std::min(col_block, bank.rows());
      std::vector<float> cell_buf(kGroupRows * tile);
      for (size_t b = bb; b < be; ++b) {
        const size_t row_begin = b * band_rows;
        const size_t row_end = std::min(rows, row_begin + band_rows);
        if (row_begin >= row_end) continue;
        Band& band = bands[b];
        if (band.col_counts.empty()) {
          band.col_vals.assign(cols * kk_tgt, kNegInf);
          band.col_counts.assign(cols, 0);
          band.col_floors.assign(cols, kNegInf);
          band.row_vals.assign((row_end - row_begin) * kk_src, kNegInf);
          band.row_counts.assign(row_end - row_begin, 0);
        }
        uint64_t local_nan = 0;
        uint64_t local_blocks = 0;
        for (size_t jo = 0; jo < bank.rows(); jo += col_block) {
          const size_t width = std::min(bank.rows(), jo + col_block) - jo;
          const size_t first = bank.first_row() + jo;
          float* col_floors = band.col_floors.data() + first;
          ++local_blocks;
          for (size_t g = row_begin; g < row_end; g += kGroupRows) {
            const size_t group = std::min(kGroupRows, row_end - g);
            detail::MetricBlock(
                metric, src.Row(g).data(), dim,
                src_norms.empty() ? nullptr : src_norms.data() + g, group,
                bank.values() + jo * bank.stride(), bank.stride(),
                tgt_norms.empty() ? nullptr : tgt_norms.data() + first, width,
                cell_buf.data(), tile, dim);
            for (size_t q = 0; q < group; ++q) {
              const float* v = cell_buf.data() + q * tile;
              const size_t r = g + q - row_begin;
              float* rvals = band.row_vals.data() + r * kk_src;
              uint32_t& rcount = band.row_counts[r];
              local_nan += CountNan(v, width);
              // Values below both floors would leave both buffers as they
              // are; the value-only buffers hold the same k-largest
              // multiset whichever calls are skipped, so psi stays exact.
              float row_floor = Floor(rvals, rcount, kk_src);
              for (size_t j0 = 0; j0 < width; j0 += 8) {
                const size_t lanes = std::min<size_t>(8, width - j0);
                if (lanes == 8 && !AnyReaches(v + j0, row_floor,
                                              col_floors + j0)) {
                  continue;
                }
                for (size_t j = j0; j < j0 + lanes; ++j) {
                  const float s = v[j];
                  if (s >= row_floor) {
                    InsertValue(rvals, rcount, kk_src, s);
                    row_floor = Floor(rvals, rcount, kk_src);
                  }
                  if (s >= col_floors[j]) {
                    float* cvals = band.col_vals.data() + (first + j) * kk_tgt;
                    uint32_t& ccount = band.col_counts[first + j];
                    InsertValue(cvals, ccount, kk_tgt, s);
                    col_floors[j] = Floor(cvals, ccount, kk_tgt);
                  }
                }
              }
            }
          }
        }
        if (local_nan > 0) {
          nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
        }
        telemetry::IncrCounter("align/topk_blocks", local_blocks);
      }
    });
  });
  OPENEA_CHECK(walked.ok()) << walked.ToString();

  for (size_t b = 0; b < num_bands; ++b) {
    const size_t row_begin = b * band_rows;
    for (size_t r = 0; r < bands[b].row_counts.size(); ++r) {
      psi_src[row_begin + r] = MeanDescending(
          bands[b].row_vals.data() + r * kk_src, bands[b].row_counts[r]);
    }
  }

  // Merge the band-local buffers per column. The k-largest multiset is
  // independent of the merge order, and the final descending sum matches
  // the dense mean over a partial_sort-descending prefix.
  ParallelFor(0, cols, 256, [&](size_t begin, size_t end) {
    std::vector<float> merged;
    for (size_t j = begin; j < end; ++j) {
      merged.clear();
      for (const Band& band : bands) {
        if (band.col_counts.empty()) continue;
        const float* vals = band.col_vals.data() + j * kk_tgt;
        merged.insert(merged.end(), vals, vals + band.col_counts[j]);
      }
      const size_t take = std::min<size_t>(kk_tgt, merged.size());
      std::partial_sort(merged.begin(),
                        merged.begin() + static_cast<long>(take), merged.end(),
                        std::greater<float>());
      float sum = 0.0f;
      for (size_t t = 0; t < take; ++t) sum += merged[t];
      psi_tgt[j] = take > 0 ? sum / static_cast<float>(take) : 0.0f;
    }
  });
}

}  // namespace

TopKResult StreamingTopK(const math::Matrix& src, const math::RowBanks& tgt,
                         const TopKOptions& options) {
  OPENEA_CHECK_EQ(src.cols(), tgt.dim());
  const size_t rows = src.rows();
  const size_t cols = tgt.rows();
  const size_t dim = tgt.dim();
  const bool has_true = !options.true_cols.empty();
  if (has_true) OPENEA_CHECK_EQ(options.true_cols.size(), rows);
  const size_t col_block =
      options.col_block > 0 ? options.col_block : kDefaultColBlock;

  TopKResult result;
  result.rows = rows;
  result.k = options.k;
  result.entries.assign(rows * options.k, TopKEntry{});
  if (has_true) {
    result.true_sim.assign(rows, 0.0f);
    result.num_greater.assign(rows, 0);
    result.num_ties.assign(rows, 0);
  }
  if (rows == 0) return result;

  telemetry::ScopedSpan span("streaming_topk");
  telemetry::IncrCounter("align/topk_rows", rows);

  std::vector<float> src_norms, tgt_norms;
  if (options.metric == DistanceMetric::kCosine) {
    src_norms = math::RowNorms(src);
    tgt_norms = math::RowNorms(tgt);
  }

  std::atomic<uint64_t> nan_cells{0};
  std::vector<float> psi_src, psi_tgt;
  if (options.csls) {
    telemetry::ScopedSpan psi_span("topk_psi");
    ComputeCslsPsi(src, tgt, options.metric, options.csls_k, col_block,
                   src_norms, tgt_norms, psi_src, psi_tgt, nan_cells);
  }

  if (has_true) {
    // True-column cells first (the scan counts against them), grouped by
    // the bank holding the true column so each bank is pinned once. One
    // cell per row, so serial: negligible next to the scan.
    std::vector<std::vector<uint32_t>> true_rows_by_bank(tgt.num_banks());
    for (size_t i = 0; i < rows; ++i) {
      const int true_col = options.true_cols[i];
      OPENEA_CHECK_LT(static_cast<size_t>(true_col), cols);
      true_rows_by_bank[tgt.BankOfRow(static_cast<size_t>(true_col))]
          .push_back(static_cast<uint32_t>(i));
    }
    const Status walked =
        tgt.ForEachBank([&](const math::RowBanks::Bank& bank) {
      const std::vector<uint32_t>& group =
          true_rows_by_bank[tgt.BankOfRow(bank.first_row())];
      for (const size_t i : group) {
        const size_t tc = static_cast<size_t>(options.true_cols[i]);
        const float raw = detail::MetricCell(
            options.metric, src.Row(i).data(),
            src_norms.empty() ? 0.0f : src_norms[i], bank.Row(tc),
            tgt_norms.empty() ? 0.0f : tgt_norms[tc], dim);
        result.true_sim[i] =
            options.csls ? CslsAdjust(raw, psi_src[i], psi_tgt[tc]) : raw;
      }
    });
    OPENEA_CHECK(walked.ok()) << walked.ToString();
  }

  // Bank-outer scan with per-row selection state kept across banks. Row
  // chunk boundaries are fixed by kRowGrain, so a row is only ever touched
  // by the thread owning its chunk within a bank, and the ParallelFor
  // barrier orders the banks. Inside a chunk, column tiles are outer and
  // 4-row groups inner: each tile-kernel call fills a 4 x tile cell block,
  // and a branch-free epilogue per row applies CSLS and counts NaN,
  // greater and tied cells; only cells that reach the row's k-th value go
  // on to the top-k insert.
  std::vector<size_t> counts(rows, 0);
  {
    telemetry::ScopedSpan scan_span("topk_scan");
    const Status walked =
        tgt.ForEachBank([&](const math::RowBanks::Bank& bank) {
      ParallelFor(0, rows, kRowGrain, [&](size_t row_begin, size_t row_end) {
        const size_t tile = std::min(col_block, bank.rows());
        std::vector<float> cell_buf(kGroupRows * tile);
        uint64_t local_nan = 0;
        uint64_t local_blocks = 0;
        for (size_t jo = 0; jo < bank.rows(); jo += col_block) {
          const size_t width = std::min(bank.rows(), jo + col_block) - jo;
          const size_t first = bank.first_row() + jo;
          local_blocks += row_end - row_begin;
          for (size_t g = row_begin; g < row_end; g += kGroupRows) {
            const size_t group = std::min(kGroupRows, row_end - g);
            detail::MetricBlock(
                options.metric, src.Row(g).data(), dim,
                src_norms.empty() ? nullptr : src_norms.data() + g, group,
                bank.values() + jo * bank.stride(), bank.stride(),
                tgt_norms.empty() ? nullptr : tgt_norms.data() + first, width,
                cell_buf.data(), tile, dim);
            for (size_t q = 0; q < group; ++q) {
              const size_t i = g + q;
              float* v = cell_buf.data() + q * tile;
              if (options.csls) {
                AdjustRow(v, width, psi_src[i], psi_tgt.data() + first);
              }
              local_nan += CountNan(v, width);
              if (has_true) {
                const float true_val = result.true_sim[i];
                uint32_t greater = 0, ties = 0;
                CountAgainst(v, width, true_val, greater, ties);
                // The true column is not its own competitor. Its cell here
                // equals true_sim bit for bit, so this takes back exactly
                // the tie it was counted as (nothing when true_sim is NaN).
                const size_t tc = static_cast<size_t>(options.true_cols[i]);
                if (tc >= first && tc < first + width) {
                  const float own = v[tc - first];
                  greater -= own > true_val;
                  ties -= own == true_val;
                }
                result.num_greater[i] += greater;
                result.num_ties[i] += ties;
              }
              if (options.k > 0) {
                TopKEntry* ents = result.entries.data() + i * options.k;
                size_t& count = counts[i];
                float floor = count == options.k ? ents[count - 1].value
                                                 : kNegInf;
                for (size_t j = 0; j < width; ++j) {
                  // A NaN cell or one below the k-th kept value cannot
                  // enter; TopKInsert settles ties on the column.
                  if (!(v[j] >= floor)) continue;
                  detail::TopKInsert(ents, count, options.k, v[j],
                                     static_cast<int>(first + j));
                  if (count == options.k) floor = ents[count - 1].value;
                }
              }
            }
          }
        }
        if (local_nan > 0) {
          nan_cells.fetch_add(local_nan, std::memory_order_relaxed);
        }
        telemetry::IncrCounter("align/topk_blocks", local_blocks);
      });
    });
    OPENEA_CHECK(walked.ok()) << walked.ToString();
  }

  uint64_t nan_true = 0;
  for (size_t i = 0; has_true && i < rows; ++i) {
    if (std::isnan(result.true_sim[i])) {
      // Deterministic worst-case rank for a NaN-poisoned true pair — the
      // dense comparisons would silently report rank 1.
      ++nan_true;
      result.num_greater[i] = static_cast<uint32_t>(cols);
      result.num_ties[i] = 0;
    }
  }

  result.nan_cells = nan_cells.load(std::memory_order_relaxed);
  if (result.nan_cells > 0) {
    telemetry::IncrCounter("align/topk_nan_cells", result.nan_cells);
  }
  if (nan_true > 0) {
    telemetry::IncrCounter("align/topk_nan_true", nan_true);
  }
  return result;
}

}  // namespace openea::align
