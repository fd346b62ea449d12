// Machine roofline measured in the benchmark's own loops, at the thread
// count the workloads use:
//  * peak FMA throughput: independent AVX2 FMA chains (the widest ISA the
//    library's kernels are built for), 2 flops per lane per FMA;
//  * stream triad a[i] = b[i] + s * c[i] over double arrays whose combined
//    size is at least 4x the last-level cache. Bytes moved are computed as
//    3 arrays x 8 bytes per element per pass; write-allocate traffic is not
//    counted. The best of several passes is reported, as STREAM does.

#include <immintrin.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

namespace {

constexpr int kChains = 10;

__attribute__((target("avx2,fma"))) double FmaLoopAvx2(long iterations) {
  __m256 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_ps(1.0f + j * 1e-3f);
  const __m256 mul = _mm256_set1_ps(0.999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (long i = 0; i < iterations; ++i) {
    for (int j = 0; j < kChains; ++j) {
      acc[j] = _mm256_fmadd_ps(acc[j], mul, add);
    }
  }
  float lanes[8];
  __m256 sum = acc[0];
  for (int j = 1; j < kChains; ++j) sum = _mm256_add_ps(sum, acc[j]);
  _mm256_storeu_ps(lanes, sum);
  return lanes[0];
}

double FmaLoopScalar(long iterations) {
  float acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = 1.0f + j * 1e-3f;
  for (long i = 0; i < iterations; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * 0.999999f + 1e-7f;
  }
  float sum = 0.0f;
  for (int j = 0; j < kChains; ++j) sum += acc[j];
  return sum;
}

/// Runs fn(thread_index) on `threads` threads and returns the wall time.
template <typename Fn>
double RunThreads(int threads, Fn fn) {
  std::vector<std::thread> pool;
  const double t0 = Now();
  for (int t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (auto& th : pool) th.join();
  return Now() - t0;
}

size_t LastLevelCacheBytes() {
  size_t best_level = 0, best_bytes = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level"), size_file(dir + "/size");
    size_t level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) {
      continue;
    }
    size_t bytes = std::stoul(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level >= best_level) {
      best_level = level;
      best_bytes = std::max(best_bytes, bytes);
    }
  }
  if (best_bytes == 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    best_bytes = l3 > 0 ? static_cast<size_t>(l3) : size_t{32} << 20;
  }
  return best_bytes;
}

}  // namespace

void MeasureRoofline(int threads, Report* report) {
  const bool avx2 = __builtin_cpu_supports("avx2") &&
                    __builtin_cpu_supports("fma");
  const int lanes = avx2 ? 8 : 1;
  const long iterations = avx2 ? 40'000'000 : 10'000'000;
  std::vector<double> sinks(threads);
  double best_fma = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double seconds = RunThreads(threads, [&](int t) {
      sinks[t] += avx2 ? FmaLoopAvx2(iterations) : FmaLoopScalar(iterations);
    });
    const double flops = 2.0 * lanes * kChains *
                         static_cast<double>(iterations) * threads;
    best_fma = std::max(best_fma, flops / seconds / 1e9);
  }
  report->Set("math.peak_gflops", best_fma);

  const size_t llc = LastLevelCacheBytes();
  const size_t n = (4 * llc) / (3 * sizeof(double)) + 1;
  std::vector<double> a(n), b(n), c(n);
  RunThreads(threads, [&](int t) {  // First touch on the measuring threads.
    for (size_t i = n * t / threads; i < n * (t + 1) / threads; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i % 7);
      c[i] = 2.0;
    }
  });
  double best_triad = 0.0;
  for (int pass = 0; pass < 6; ++pass) {
    const double scalar = 0.5 + pass;
    const double seconds = RunThreads(threads, [&](int t) {
      double* __restrict pa = a.data();
      const double* __restrict pb = b.data();
      const double* __restrict pc = c.data();
      for (size_t i = n * t / threads; i < n * (t + 1) / threads; ++i) {
        pa[i] = pb[i] + scalar * pc[i];
      }
    });
    best_triad = std::max(best_triad, 3.0 * sizeof(double) * n / seconds / 1e9);
  }
  double sink = a[n / 2];
  for (const double s : sinks) sink += s;
  report->Set("math.triad_gbs", best_triad);
  report->Note("roofline: FMA " + std::to_string(best_fma) + " GFLOP/s (" +
               (avx2 ? "avx2" : "scalar") + "), triad " +
               std::to_string(best_triad) + " GB/s over 3 arrays of " +
               std::to_string(8.0 * n / (1 << 20)) + " MiB (LLC " +
               std::to_string(llc >> 20) + " MiB); sink " +
               std::to_string(sink));
}

}  // namespace perfbench
