#ifndef OPENEA_MATH_ROW_BANKS_H_
#define OPENEA_MATH_ROW_BANKS_H_

#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/math/matrix.h"
#include "src/math/sharded_table.h"

namespace openea::math {

/// One view of a (rows x dim) float table as a sequence of row banks that
/// hides where the rows live (DESIGN.md, "Out-of-core scale"). An in-RAM
/// Matrix is cut into banks of kBankRows rows: stride = cols, nothing to map,
/// pin or lock. A ShardedEmbeddingTable is its own banks: mapped on demand,
/// pinned by a lease, rows at the padded stride, the next bank prefetched
/// while the current one is scanned.
///
/// Every scan over target rows walks this view, so each has one
/// implementation whether the rows live in RAM or on disk: the top-k scan
/// and its CSLS psi pass (src/align/topk.h), the IVF k-means build and list
/// probes (src/align/ann_ivf.cc), and RowNorms below. The bank height is
/// also the cache blocking of the in-RAM scan: a 4096 x 64 bank is 1 MiB,
/// small enough to stay in L2 while a chunk of query rows streams over it.
class RowBanks {
 public:
  /// Bank height of an in-RAM matrix: the sharded writer's default, so a
  /// matrix and its default shard file have the same bank layout.
  static constexpr size_t kBankRows = kDefaultRowsPerBank;

  /// A pinned bank: rows [first_row(), first_row() + rows()), stride()
  /// floats apart. The pointers stay valid while the Bank lives.
  class Bank {
   public:
    const float* values() const { return values_; }
    size_t first_row() const { return first_row_; }
    size_t rows() const { return rows_; }
    size_t stride() const { return stride_; }
    /// Values of `global_row`, which must fall inside this bank.
    const float* Row(size_t global_row) const {
      return values_ + (global_row - first_row_) * stride_;
    }

   private:
    friend class RowBanks;
    ShardedEmbeddingTable::BankLease lease_;  // Empty for in-RAM banks.
    const float* values_ = nullptr;
    size_t first_row_ = 0;
    size_t rows_ = 0;
    size_t stride_ = 0;
  };

  RowBanks() = default;
  /// Views `m`, which must outlive the view (implicit, like std::span).
  RowBanks(const Matrix& m);  // NOLINT(google-explicit-constructor)
  /// Views `m` and keeps it alive.
  explicit RowBanks(std::shared_ptr<const Matrix> m);
  /// Views `table` and keeps it alive.
  explicit RowBanks(std::shared_ptr<const ShardedEmbeddingTable> table);

  size_t rows() const { return rows_; }
  size_t dim() const { return dim_; }
  size_t bank_rows() const { return bank_rows_; }
  size_t num_banks() const { return (rows_ + bank_rows_ - 1) / bank_rows_; }
  size_t BankOfRow(size_t row) const { return row / bank_rows_; }

  /// The sharded table behind the view, or nullptr for an in-RAM matrix.
  const ShardedEmbeddingTable* table() const { return table_.get(); }
  /// The in-RAM matrix behind the view, or nullptr for a sharded table.
  const Matrix* matrix() const { return matrix_; }

  /// Pins bank `b`. Fails only for a sharded bank whose CRC does not match
  /// its directory entry (torn or corrupted bank).
  StatusOr<Bank> Map(size_t b) const;

  /// Calls fn(const Bank&) on every bank in row order, prefetching the next
  /// sharded bank while fn runs. Stops at the first map error.
  template <typename Fn>
  Status ForEachBank(Fn&& fn) const {
    for (size_t b = 0; b < num_banks(); ++b) {
      if (table_ && b + 1 < num_banks()) table_->Prefetch(b + 1);
      StatusOr<Bank> bank = Map(b);
      if (!bank.ok()) return bank.status();
      fn(*bank);
    }
    return Status::OK();
  }

  /// Copies one row's values into `out` (dim floats).
  Status ReadRow(size_t row, std::span<float> out) const;

  /// Materializes every row in RAM (for the dense-only consumers).
  StatusOr<Matrix> ToMatrix() const;

 private:
  std::shared_ptr<const Matrix> owned_;
  const Matrix* matrix_ = nullptr;
  std::shared_ptr<const ShardedEmbeddingTable> table_;
  size_t rows_ = 0;
  size_t dim_ = 0;
  size_t bank_rows_ = kBankRows;
};

/// Per-row L2 norms of every row. Pure per-row, so precomputing them once is
/// bit-identical to the per-pair norms of math::CosineSimilarity, and the
/// same for a matrix and its sharded copy. Aborts on a damaged bank.
std::vector<float> RowNorms(const RowBanks& rows);

}  // namespace openea::math

#endif  // OPENEA_MATH_ROW_BANKS_H_
