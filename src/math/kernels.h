#ifndef OPENEA_MATH_KERNELS_H_
#define OPENEA_MATH_KERNELS_H_

#include <cstddef>

namespace openea::math::kernels {

/// Runtime-dispatched SIMD kernel layer (DESIGN.md, "Kernel dispatch").
///
/// Every per-element float loop in the library bottoms out in one of the
/// function pointers below, the way ATen selects per-arch kernels: a scalar
/// reference table (bit-identical to the historical hand-rolled loops) and
/// an AVX2/FMA table compiled into its own translation unit with -mavx2
/// -mfma. The backend is selected exactly once, before the first kernel
/// call, from CPUID — overridable with OPENEA_KERNELS=scalar|avx2 — and
/// reported through telemetry as the `kernels` config key / the
/// `kernels/backend` gauge in every bench JSON.
///
/// Determinism contract:
///  * Within one backend, every kernel is a pure function of its inputs, so
///    all existing 1-vs-8-thread bit-identity pins hold per backend (the
///    parallel chunk layout never depends on the backend).
///  * Elementwise kernels (axpy, scale, add, sub, hadamard, the fused
///    AdaGrad/SGD updates) perform the same IEEE operations per lane in
///    both backends and are bit-identical across backends; the AVX2
///    versions deliberately avoid FMA contraction for this reason.
///  * Reduction kernels (dot, norms, distances, GEMM) reassociate the
///    accumulation in the AVX2 backend and may differ from scalar in the
///    last ULPs. tests/kernels_test.cc ties the backends together with a
///    ULP-tolerance equivalence suite; committed bench baselines are
///    recorded under a pinned backend (the diff gate forces scalar).
enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
};

/// The dispatch table. All pointers are non-null in every table; spans are
/// passed as raw pointer + length because the table is the lowest layer
/// (std::span costs nothing but adds no information here). No alignment
/// requirements: AVX2 kernels use unaligned loads, alignment of the row
/// storage (64-byte, see AlignedVector) is purely a performance property.
struct KernelTable {
  // -- Reductions (may differ bitwise between backends). ------------------
  /// sum_i a[i] * b[i].
  float (*dot)(const float* a, const float* b, size_t n);
  /// sum_i x[i]^2.
  float (*squared_l2)(const float* x, size_t n);
  /// sum_i |x[i]|.
  float (*l1)(const float* x, size_t n);
  /// sum_i (a[i] - b[i])^2.
  float (*squared_l2_distance)(const float* a, const float* b, size_t n);
  /// sum_i |a[i] - b[i]|.
  float (*l1_distance)(const float* a, const float* b, size_t n);

  // -- Query x target tiles: q_rows query rows (`lda` floats apart) against
  //    r_rows target rows (`ldb` floats apart); the cell of query q and
  //    target r goes to out[q * ldo + r]. Every cell gets exactly the float
  //    the cell kernel above gives for that (query, target) pair, whatever
  //    the tile shape, so the streaming top-k, the dense similarity matrix
  //    and the IVF build stay bit-identical to each other and to a per-cell
  //    scan under either backend. q_rows == 1 is the one-row call (ldo is
  //    then unused). ---------------------------------------------------------
  void (*dot_tile)(const float* a, size_t lda, const float* b, size_t ldb,
                   float* out, size_t ldo, size_t q_rows, size_t r_rows,
                   size_t n);
  void (*squared_l2_distance_tile)(const float* a, size_t lda, const float* b,
                                   size_t ldb, float* out, size_t ldo,
                                   size_t q_rows, size_t r_rows, size_t n);
  void (*l1_distance_tile)(const float* a, size_t lda, const float* b,
                           size_t ldb, float* out, size_t ldo, size_t q_rows,
                           size_t r_rows, size_t n);

  // -- Elementwise (bit-identical across backends). ------------------------
  /// y[i] += alpha * x[i].
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  /// x[i] *= alpha.
  void (*scale)(float alpha, float* x, size_t n);
  /// out[i] = a[i] + b[i] (out may alias a or b).
  void (*add)(const float* a, const float* b, float* out, size_t n);
  /// out[i] = a[i] - b[i] (out may alias a or b).
  void (*sub)(const float* a, const float* b, float* out, size_t n);
  /// out[i] = a[i] * b[i] (out may alias a or b).
  void (*hadamard)(const float* a, const float* b, float* out, size_t n);

  // -- Small row-blocked GEMM: out(m x n) = a(m x k) * b(k x n), all
  //    row-major with the given leading dimensions, out overwritten.
  //    i-k-j loop order; the scalar version keeps the historical
  //    "skip aik == 0" fast path bit for bit. ------------------------------
  void (*gemm_block)(const float* a, size_t lda, const float* b, size_t ldb,
                     float* out, size_t ldc, size_t m, size_t k, size_t n);

  // -- Fused optimizer updates (elementwise; bit-identical across
  //    backends): acc[i] += g[i]^2; row[i] -= (lr * g[i]) / sqrt(acc[i] +
  //    eps). ---------------------------------------------------------------
  void (*adagrad_update)(float* row, float* acc, const float* grad, size_t n,
                         float lr, float eps);
  /// row[i] -= lr * grad[i].
  void (*sgd_update)(float* row, const float* grad, size_t n, float lr);
};

/// Human-readable backend name ("scalar" / "avx2").
const char* BackendName(Backend backend);

/// True when the CPU supports AVX2+FMA *and* the AVX2 table was compiled in
/// (OPENEA_ENABLE_AVX2). A pure capability probe; independent of the
/// OPENEA_KERNELS override.
bool Avx2Supported();

/// The backend selected at startup: OPENEA_KERNELS=scalar|avx2 when set
/// (an unsatisfiable avx2 request falls back to scalar with a warning),
/// else avx2 when supported, else scalar.
Backend ActiveBackend();

/// The dispatch table of the active backend. Hot loops should hoist this
/// reference out of the loop (one relaxed atomic load).
const KernelTable& Active();

/// The table of a specific backend, for A/B benches and the equivalence
/// suite. Requesting an unavailable backend returns the scalar table.
const KernelTable& Table(Backend backend);

/// Forces the active backend for the rest of the process (tests and A/B
/// benches). Returns false — leaving the active table unchanged — when the
/// requested backend is unavailable on this CPU/build.
bool SetBackendForTesting(Backend backend);

}  // namespace openea::math::kernels

#endif  // OPENEA_MATH_KERNELS_H_
