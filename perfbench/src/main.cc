// ea_bench, the repository benchmark's C++ program: runs one workload in
// this process and prints its report as one JSON line on stdout.
// perfbench/run.py builds this binary, runs it once per workload (so peak
// RSS belongs to that workload) and turns the report into the benchmark's
// result line. See perfbench/README.md.
//
//   ea_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir>
//   ea_bench --self-test

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench/src/bench.h"
#include "src/common/json.h"
#include "src/common/parallel.h"
#include "src/common/trace.h"

namespace perfbench {

namespace {

/// User and system CPU seconds of the whole process (all threads).
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};

CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

}  // namespace

void Report::Check(const std::string& name, const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  correct = false;
  Note("CHECK FAILED " + name + ": " + failure);
}

double InputRng::Gaussian() {
  constexpr double kTwoPi = 6.283185307179586;
  return std::sqrt(-2.0 * std::log(Uniform())) * std::cos(kTwoPi * Uniform());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Rep Measure(const std::function<void()>& unit) {
  const CpuTimes cpu0 = ProcessCpu();
  const double t0 = Now();
  unit();
  const double wall = Now() - t0;
  const CpuTimes cpu1 = ProcessCpu();
  return {wall, cpu1.total() - cpu0.total(), cpu1.sys - cpu0.sys};
}

double MedianSetup(int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    times.push_back(Measure(setup).wall_s);
  }
  return Median(times);
}

void StartTracing() {
  openea::telemetry::SetCollection(true);
  openea::trace::TraceConfig config;
  config.events_per_thread = size_t{1} << 18;
  openea::trace::Start(config);
}

void StopTracing(const std::string& path, Report* report) {
  openea::trace::Stop();
  uint64_t dropped = 0;
  const auto events = openea::trace::DrainEvents(&dropped);
  openea::telemetry::SetCollection(false);
  report->Set("trace.dropped", static_cast<double>(dropped));
  if (path.empty()) return;
  const std::string doc =
      openea::trace::BuildChromeTraceDocument(events, dropped).Dump(0);
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ea_bench --workload <dataset_15k|train_suite|rank_eval|"
               "serve_100k> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n"
               "       ea_bench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.traced = std::string(argv[++i]) == "1";
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  // The checks must be able to fail: every run first feeds each of them a
  // corrupted output.
  if (RunCheckSelfTest() != 0) {
    std::fprintf(stderr, "check self-test failed\n");
    return 3;
  }
  if (self_test) {
    std::fprintf(stderr, "check self-test passed\n");
    return 0;
  }
  if (options.workdir.empty() || options.seconds <= 0) return Usage();
  std::filesystem::create_directories(options.workdir);
  openea::SetThreads(kThreads);

  Report report;
  if (options.workload == "dataset_15k") {
    RunDataset15k(options, &report);
  } else if (options.workload == "train_suite") {
    RunTrainSuite(options, &report);
  } else if (options.workload == "rank_eval") {
    RunRankEval(options, &report);
  } else if (options.workload == "serve_100k") {
    RunServe100k(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return Usage();
  }
  if (options.traced) {
    MeasureRoofline(kThreads, &report);
    const auto gflops = report.values.find("eval.gflops");
    if (gflops != report.values.end()) {
      report.Set("eval.roofline_frac",
                 gflops->second / report.values["math.peak_gflops"]);
    }
  }
  report.Set("peak_rss_mb", openea::telemetry::PeakRssMb());
  report.Set("failed_frac", static_cast<double>(report.failed) /
                                static_cast<double>(
                                    std::max<int64_t>(1, report.attempted)));

  for (const auto& line : report.notes) {
    std::fprintf(stderr, "[%s] %s\n", options.workload.c_str(), line.c_str());
  }
  openea::json::Value::Object values;
  for (const auto& [name, value] : report.values) values[name] = value;
  openea::json::Value::Object out;
  out["correct"] = report.correct;
  out["attempted"] = report.attempted;
  out["failed"] = report.failed;
  out["values"] = openea::json::Value(std::move(values));
  std::printf("%s\n", openea::json::Value(std::move(out)).Dump(0).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
