// AVX2/FMA backend of the kernel dispatch table (src/math/kernels.h). This
// is the only translation unit compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); nothing in it may be reached except through the
// table returned by Avx2KernelTable(), which kernels.cc only hands out
// after the CPUID probe passed.
//
// Bitwise contract (kernels.h): elementwise kernels perform the same IEEE
// operation per lane as the scalar backend — multiply then add/sub, never
// an FMA contraction — so they are bit-identical to scalar. Reduction
// kernels use 8-lane FMA accumulators and reassociate the sum; they may
// differ from scalar in the last ULPs and are tied to it by the
// ULP-tolerance suite in tests/kernels_test.cc.

#ifdef OPENEA_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "src/math/kernels.h"

namespace openea::math::kernels {
namespace {

constexpr size_t kLanes = 8;  // floats per __m256

inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x55));
  return _mm_cvtss_f32(sum);
}

inline __m256 Abs(__m256 v) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  return _mm256_andnot_ps(sign_mask, v);
}

// ---------------------------------------------------------------------------
// Reductions: 4 independent 8-lane accumulators (hides FMA latency at the
// library's d=32..512 row lengths), folded pairwise, then a fixed-order
// scalar tail added after the horizontal sum.
// ---------------------------------------------------------------------------

float Avx2Dot(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 4 * kLanes <= n; i += 4 * kLanes) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                           _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + kLanes),
                           _mm256_loadu_ps(b + i + kLanes), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 2 * kLanes),
                           _mm256_loadu_ps(b + i + 2 * kLanes), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 3 * kLanes),
                           _mm256_loadu_ps(b + i + 3 * kLanes), acc3);
  }
  for (; i + kLanes <= n; i += kLanes) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                           _mm256_loadu_ps(b + i), acc0);
  }
  acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
  float sum = HorizontalSum(acc0);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

float Avx2SquaredL2(const float* x, size_t n) { return Avx2Dot(x, x, n); }

float Avx2L1(const float* x, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc = _mm256_add_ps(acc, Abs(_mm256_loadu_ps(x + i)));
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) sum += std::fabs(x[i]);
  return sum;
}

float Avx2SquaredL2Distance(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + kLanes),
                                    _mm256_loadu_ps(b + i + kLanes));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float sum = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float Avx2L1Distance(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc = _mm256_add_ps(
        acc, Abs(_mm256_sub_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i))));
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

// ---------------------------------------------------------------------------
// Query x target tiles. A 4-query x 8-target register tile: each target is
// loaded once for four queries, and the eight cells of a query row share one
// transposed horizontal sum. Per cell, the tile keeps its cell kernel's
// reduction exactly — the same accumulator chains over the same offsets, the
// same fold, the same lane pairing of the horizontal sum and the same scalar
// tail, with every operation's operands in the same order — so each cell is
// the float the cell kernel gives. Cells outside full tiles (the last
// q_rows % 4 queries, so every one-query call, and the last r_rows % 8
// targets) run the cell kernel itself: a lone query shares no target load,
// and per-cell calls measured faster than a 1 x 8 tile for one query.
// ---------------------------------------------------------------------------

/// The reduction recipe of one cell kernel: kChains 8-lane accumulators
/// step through blocks of kChains * 8 floats (chain c takes offset c * 8 of
/// each block), the remaining 8-lane chunks go to chain 0, the chains fold
/// as in the cell kernel, and Tail adds one leftover element.
struct DotRecipe {
  static constexpr size_t kChains = 4;
  static __m256 Step(__m256 acc, __m256 a, __m256 b) {
    return _mm256_fmadd_ps(a, b, acc);
  }
  static float Tail(float sum, float a, float b) { return sum + a * b; }
  static float Cell(const float* a, const float* b, size_t n) {
    return Avx2Dot(a, b, n);
  }
};

struct SquaredL2DistanceRecipe {
  static constexpr size_t kChains = 2;
  static __m256 Step(__m256 acc, __m256 a, __m256 b) {
    const __m256 d = _mm256_sub_ps(a, b);
    return _mm256_fmadd_ps(d, d, acc);
  }
  static float Tail(float sum, float a, float b) {
    const float d = a - b;
    return sum + d * d;
  }
  static float Cell(const float* a, const float* b, size_t n) {
    return Avx2SquaredL2Distance(a, b, n);
  }
};

struct L1DistanceRecipe {
  static constexpr size_t kChains = 1;
  static __m256 Step(__m256 acc, __m256 a, __m256 b) {
    return _mm256_add_ps(acc, Abs(_mm256_sub_ps(a, b)));
  }
  static float Tail(float sum, float a, float b) {
    return sum + std::fabs(a - b);
  }
  static float Cell(const float* a, const float* b, size_t n) {
    return Avx2L1Distance(a, b, n);
  }
};

/// Queries per register tile.
constexpr size_t kTileQueries = 4;

/// Chains c .. c + kCount - 1 of the kTileQueries cells of one target row,
/// stepped together so the core has independent FMA chains to overlap.
/// Each chain still takes its offsets in the cell kernel's order.
template <class Recipe, size_t kCount>
inline void Chains(const float* a, size_t lda, const float* b, size_t n,
                   size_t c, __m256 (&acc)[kCount][kTileQueries]) {
  constexpr size_t kBlock = Recipe::kChains * kLanes;
  const size_t blocks = n / kBlock;
  for (size_t k = 0; k < kCount; ++k) {
    for (size_t q = 0; q < kTileQueries; ++q) acc[k][q] = _mm256_setzero_ps();
  }
  const auto step = [&](size_t k, size_t i) {
    const __m256 bv = _mm256_loadu_ps(b + i);
    for (size_t q = 0; q < kTileQueries; ++q) {
      acc[k][q] = Recipe::Step(acc[k][q], _mm256_loadu_ps(a + q * lda + i), bv);
    }
  };
  for (size_t m = 0; m < blocks; ++m) {
    for (size_t k = 0; k < kCount; ++k) step(k, m * kBlock + (c + k) * kLanes);
  }
  if (c == 0) {
    for (size_t i = blocks * kBlock; i + kLanes <= n; i += kLanes) step(0, i);
  }
}

/// The folded 8-lane vectors of the kTileQueries cells of one target row,
/// before the horizontal sum: (c0 + c1) + (c2 + c3), c0 + c1 or c0, as the
/// cell kernel folds.
template <class Recipe>
inline void FoldedCells(const float* a, size_t lda, const float* b, size_t n,
                        __m256 (&cells)[kTileQueries]) {
  constexpr size_t kPair = Recipe::kChains >= 2 ? 2 : 1;
  __m256 acc[kPair][kTileQueries];
  Chains<Recipe, kPair>(a, lda, b, n, 0, acc);
  if constexpr (kPair == 1) {
    for (size_t q = 0; q < kTileQueries; ++q) cells[q] = acc[0][q];
  } else {
    for (size_t q = 0; q < kTileQueries; ++q) {
      cells[q] = _mm256_add_ps(acc[0][q], acc[1][q]);
    }
  }
  if constexpr (Recipe::kChains == 4) {
    Chains<Recipe, kPair>(a, lda, b, n, 2, acc);
    for (size_t q = 0; q < kTileQueries; ++q) {
      cells[q] = _mm256_add_ps(cells[q], _mm256_add_ps(acc[0][q], acc[1][q]));
    }
  }
}

/// HorizontalSum of eight vectors at once: lane r of the result is
/// HorizontalSum(v[r]), with the same pairing
/// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)) and operand order.
inline __m256 HorizontalSum8(const __m256 (&v)[8]) {
  __m256 s[4];  // s[p] = [lo(v[2p]) + hi(v[2p]) | lo(v[2p+1]) + hi(v[2p+1])]
  for (size_t p = 0; p < 4; ++p) {
    s[p] = _mm256_add_ps(_mm256_permute2f128_ps(v[2 * p], v[2 * p + 1], 0x20),
                         _mm256_permute2f128_ps(v[2 * p], v[2 * p + 1], 0x31));
  }
  // t0 = [t(0) t(2) | t(1) t(3)] and t1 likewise for 4..7, where t(r) holds
  // the two partial sums (x0 + x2, x1 + x3) of s's four lanes x of cell r.
  const __m256 t0 = _mm256_add_ps(_mm256_shuffle_ps(s[0], s[1], 0x44),
                                  _mm256_shuffle_ps(s[0], s[1], 0xEE));
  const __m256 t1 = _mm256_add_ps(_mm256_shuffle_ps(s[2], s[3], 0x44),
                                  _mm256_shuffle_ps(s[2], s[3], 0xEE));
  // [r0 r2 r4 r6 | r1 r3 r5 r7], then back to cell order.
  const __m256 r = _mm256_add_ps(_mm256_shuffle_ps(t0, t1, 0x88),
                                 _mm256_shuffle_ps(t0, t1, 0xDD));
  return _mm256_permutevar8x32_ps(r, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

/// kTileQueries query rows against r_rows targets: 8-target tiles, then the
/// cell kernel for the last r_rows % 8 targets.
template <class Recipe>
void TileRows(const float* a, size_t lda, const float* b, size_t ldb,
              float* out, size_t ldo, size_t r_rows, size_t n) {
  const size_t tail = n & ~(kLanes - 1);
  size_t r0 = 0;
  for (; r0 + kLanes <= r_rows; r0 += kLanes) {
    __m256 cells[kTileQueries][kLanes];
    for (size_t r = 0; r < kLanes; ++r) {
      __m256 column[kTileQueries];
      FoldedCells<Recipe>(a, lda, b + (r0 + r) * ldb, n, column);
      for (size_t q = 0; q < kTileQueries; ++q) cells[q][r] = column[q];
    }
    for (size_t q = 0; q < kTileQueries; ++q) {
      float* o = out + q * ldo + r0;
      _mm256_storeu_ps(o, HorizontalSum8(cells[q]));
      for (size_t r = 0; tail < n && r < kLanes; ++r) {
        const float* ar = a + q * lda;
        const float* br = b + (r0 + r) * ldb;
        float sum = o[r];
        for (size_t i = tail; i < n; ++i) sum = Recipe::Tail(sum, ar[i], br[i]);
        o[r] = sum;
      }
    }
  }
  for (; r0 < r_rows; ++r0) {
    for (size_t q = 0; q < kTileQueries; ++q) {
      out[q * ldo + r0] = Recipe::Cell(a + q * lda, b + r0 * ldb, n);
    }
  }
}

template <class Recipe>
void Avx2Tile(const float* a, size_t lda, const float* b, size_t ldb,
              float* out, size_t ldo, size_t q_rows, size_t r_rows, size_t n) {
  size_t q = 0;
  for (; q + kTileQueries <= q_rows; q += kTileQueries) {
    TileRows<Recipe>(a + q * lda, lda, b, ldb, out + q * ldo, ldo, r_rows, n);
  }
  for (; q < q_rows; ++q) {
    for (size_t r = 0; r < r_rows; ++r) {
      out[q * ldo + r] = Recipe::Cell(a + q * lda, b + r * ldb, n);
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise: multiply then add/sub (no FMA) — bit-identical to scalar.
// ---------------------------------------------------------------------------

void Avx2Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2Scale(float alpha, float* x, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void Avx2Add(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void Avx2Sub(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void Avx2Hadamard(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// ---------------------------------------------------------------------------
// Row-blocked GEMM: i-k-j with an FMA-vectorized j loop. A reduction over
// k, so it may differ bitwise from scalar (which also skips aik == 0).
// ---------------------------------------------------------------------------

void Avx2GemmBlock(const float* a, size_t lda, const float* b, size_t ldb,
                   float* out, size_t ldc, size_t m, size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    float* out_row = out + i * ldc;
    size_t j = 0;
    const __m256 zero = _mm256_setzero_ps();
    for (; j + kLanes <= n; j += kLanes) _mm256_storeu_ps(out_row + j, zero);
    for (; j < n; ++j) out_row[j] = 0.0f;
    const float* a_row = a + i * lda;
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = a_row[kk];
      if (aik == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(aik);
      const float* b_row = b + kk * ldb;
      for (j = 0; j + kLanes <= n; j += kLanes) {
        _mm256_storeu_ps(out_row + j,
                         _mm256_fmadd_ps(va, _mm256_loadu_ps(b_row + j),
                                         _mm256_loadu_ps(out_row + j)));
      }
      for (; j < n; ++j) out_row[j] += aik * b_row[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Fused optimizer updates: sqrt/div are IEEE-exact per lane and the
// multiply-divide-subtract sequence mirrors the scalar statement order, so
// these stay bit-identical to the scalar backend.
// ---------------------------------------------------------------------------

void Avx2AdagradUpdate(float* row, float* acc, const float* grad, size_t n,
                       float lr, float eps) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 g = _mm256_loadu_ps(grad + i);
    const __m256 a =
        _mm256_add_ps(_mm256_loadu_ps(acc + i), _mm256_mul_ps(g, g));
    _mm256_storeu_ps(acc + i, a);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(vlr, g),
                                      _mm256_sqrt_ps(_mm256_add_ps(a, veps)));
    _mm256_storeu_ps(row + i, _mm256_sub_ps(_mm256_loadu_ps(row + i), step));
  }
  for (; i < n; ++i) {
    acc[i] += grad[i] * grad[i];
    row[i] -= lr * grad[i] / std::sqrt(acc[i] + eps);
  }
}

void Avx2SgdUpdate(float* row, const float* grad, size_t n, float lr) {
  const __m256 vlr = _mm256_set1_ps(lr);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 step = _mm256_mul_ps(vlr, _mm256_loadu_ps(grad + i));
    _mm256_storeu_ps(row + i, _mm256_sub_ps(_mm256_loadu_ps(row + i), step));
  }
  for (; i < n; ++i) row[i] -= lr * grad[i];
}

constexpr KernelTable kAvx2Table = {
    /*dot=*/Avx2Dot,
    /*squared_l2=*/Avx2SquaredL2,
    /*l1=*/Avx2L1,
    /*squared_l2_distance=*/Avx2SquaredL2Distance,
    /*l1_distance=*/Avx2L1Distance,
    /*dot_tile=*/Avx2Tile<DotRecipe>,
    /*squared_l2_distance_tile=*/Avx2Tile<SquaredL2DistanceRecipe>,
    /*l1_distance_tile=*/Avx2Tile<L1DistanceRecipe>,
    /*axpy=*/Avx2Axpy,
    /*scale=*/Avx2Scale,
    /*add=*/Avx2Add,
    /*sub=*/Avx2Sub,
    /*hadamard=*/Avx2Hadamard,
    /*gemm_block=*/Avx2GemmBlock,
    /*adagrad_update=*/Avx2AdagradUpdate,
    /*sgd_update=*/Avx2SgdUpdate,
};

}  // namespace

const KernelTable& Avx2KernelTable() { return kAvx2Table; }

}  // namespace openea::math::kernels

#endif  // OPENEA_HAVE_AVX2_KERNELS
