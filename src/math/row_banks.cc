#include "src/math/row_banks.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/math/vec.h"

namespace openea::math {

RowBanks::RowBanks(const Matrix& m)
    : matrix_(&m), rows_(m.rows()), dim_(m.cols()) {}

RowBanks::RowBanks(std::shared_ptr<const Matrix> m)
    : RowBanks(*m) {
  owned_ = std::move(m);
}

RowBanks::RowBanks(std::shared_ptr<const ShardedEmbeddingTable> table)
    : table_(std::move(table)),
      rows_(table_->num_rows()),
      dim_(table_->dim()),
      bank_rows_(table_->rows_per_bank()) {}

StatusOr<RowBanks::Bank> RowBanks::Map(size_t b) const {
  Bank bank;
  if (table_) {
    StatusOr<ShardedEmbeddingTable::BankLease> lease = table_->MapBank(b);
    if (!lease.ok()) return lease.status();
    bank.lease_ = *std::move(lease);
    bank.values_ = bank.lease_.values();
    bank.first_row_ = bank.lease_.first_row();
    bank.rows_ = bank.lease_.rows();
    bank.stride_ = bank.lease_.stride();
  } else {
    bank.first_row_ = b * bank_rows_;
    bank.rows_ = std::min(bank_rows_, rows_ - bank.first_row_);
    bank.stride_ = dim_;
    bank.values_ = matrix_->Row(bank.first_row_).data();
  }
  return bank;
}

Status RowBanks::ReadRow(size_t row, std::span<float> out) const {
  OPENEA_CHECK_LT(row, rows_);
  OPENEA_CHECK_EQ(out.size(), dim_);
  StatusOr<Bank> bank = Map(BankOfRow(row));
  if (!bank.ok()) return bank.status();
  std::memcpy(out.data(), bank->Row(row), dim_ * sizeof(float));
  return Status::OK();
}

StatusOr<Matrix> RowBanks::ToMatrix() const {
  if (table_) return table_->ToMatrix();
  return matrix_ ? *matrix_ : Matrix();
}

std::vector<float> RowNorms(const RowBanks& rows) {
  std::vector<float> norms(rows.rows());
  const Status walked = rows.ForEachBank([&](const RowBanks::Bank& bank) {
    ParallelFor(0, bank.rows(), 0, [&](size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        norms[bank.first_row() + r] = L2Norm(std::span<const float>(
            bank.values() + r * bank.stride(), rows.dim()));
      }
    });
  });
  OPENEA_CHECK(walked.ok()) << walked.ToString();
  return norms;
}

}  // namespace openea::math
