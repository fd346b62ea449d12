// Shared types of ea_bench, the repository benchmark's C++ program
// (perfbench/README.md).
//
// Each workload fills a Report: named metric values plus the operations it
// attempted and the ones that failed (checks that did not hold, degraded
// folds, failed serve requests). perfbench/run.py turns the report into the
// benchmark's result line, attaching each metric's unit from BENCHMARK.json.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/telemetry.h"

namespace perfbench {

/// Pool threads of the compute workloads and of every set-up.
constexpr int kThreads = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string workdir;  // Scratch files (shard tables) go here.
};

struct Report {
  std::map<std::string, double> values;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // Human-readable lines for stderr.

  void Set(const std::string& name, double value) { values[name] = value; }

  /// Records one correctness check, an attempted operation. A non-empty
  /// `failure` (the reason, as the checks.h functions return it) fails it
  /// and clears `correct`.
  void Check(const std::string& name, const std::string& failure);

  /// Records `attempted` operations of which `failed` failed without being
  /// a broken check (a degraded fold, a refused request).
  void Count(int64_t attempted_ops, int64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }

  void Note(const std::string& line) { notes.push_back(line); }
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark's own input generator (splitmix64 + Box-Muller), so the
/// inputs depend on --seed only, never on the program's RNG.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double Uniform() {
    return (static_cast<double>(Next() >> 11) + 1.0) / 9007199254740992.0;
  }
  double Gaussian();
  /// Uniform in [0, bound).
  size_t Below(size_t bound) { return static_cast<size_t>(Next() % bound); }

 private:
  uint64_t state_;
};

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Wall and CPU cost of one repetition of a workload's timed work.
struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sys_s = 0.0;
};

/// Runs `unit` once and measures it.
Rep Measure(const std::function<void()>& unit);

/// Runs `setup` `repeats` times and returns the median wall time.
double MedianSetup(int repeats, const std::function<void()>& setup);

/// Bench-side span around one call into a program layer. Names are
/// "<layer>.<Call>" (a dot, which no span inside the program uses), so the
/// ledger can tell the benchmark's own spans from the program's.
using BenchSpan = openea::telemetry::ScopedSpan;

/// Wall time of each public call a workload makes, by bench span name.
struct CallTimes {
  std::map<std::string, double> seconds;

  template <typename Fn>
  void Time(const std::string& name, Fn&& fn) {
    BenchSpan span(name);
    const double t0 = Now();
    fn();
    seconds[name] += Now() - t0;
  }
};

/// Turns the program's telemetry and event tracing on (traced runs only).
void StartTracing();
/// Stops event tracing and telemetry, writes the Chrome trace to `path`
/// (empty: discard) and records trace.dropped, the events the per-thread
/// rings overwrote.
void StopTracing(const std::string& path, Report* report);

/// Per-layer ledger of the traced run: self time per layer, the
/// unattributed share, and span/counter lookups (ledger.cc).
class Ledger {
 public:
  /// Snapshots the telemetry spans and counters collected so far.
  Ledger();

  /// Total seconds of every span (on any thread) whose leaf is `leaf`.
  double LeafSeconds(const std::string& leaf) const;
  /// Like LeafSeconds, restricted to spans with `ancestor` on their path.
  double LeafSecondsUnder(const std::string& leaf,
                          const std::string& ancestor) const;
  uint64_t Counter(const std::string& name) const;
  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix`.
  uint64_t CounterSum(const std::string& prefix,
                      const std::string& suffix) const;

  /// Adds self.<layer>_s for every layer and trace.unattributed_frac.
  void AddSelfTimes(Report* report) const;

 private:
  std::map<std::string, double> span_seconds_;  // Path -> total seconds.
  std::map<std::string, uint64_t> counters_;
};

/// Machine roofline measured in the benchmark's own loops: peak FMA
/// throughput and stream-triad bandwidth at `threads` threads. Adds
/// math.peak_gflops and math.triad_gbs; notes the array and cache sizes.
void MeasureRoofline(int threads, Report* report);

// Workloads (workload_*.cc).
void RunDataset15k(const Options& options, Report* report);
void RunTrainSuite(const Options& options, Report* report);
void RunRankEval(const Options& options, Report* report);
void RunServe100k(const Options& options, Report* report);

/// Feeds every check a corrupted output and expects it to fail; returns the
/// number of checks that wrongly passed (checks.cc).
int RunCheckSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
