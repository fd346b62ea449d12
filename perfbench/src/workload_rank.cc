// rank_eval: planted-alignment embeddings, no training or sampling. The
// targets are N Gaussian rows; query i is a permuted target plus Gaussian
// noise whose scale puts Hits@1 mid-range, so a ranking bug moves it. The
// run ranks all N queries against all N targets in RAM, through the
// sharded on-disk table, and under CSLS, then runs the greedy, greedy+CSLS,
// stable-marriage and Kuhn-Munkres matchers on a dense 2K subset. Bulk
// scans dominate, and both the in-RAM and the sharded scan paths are on the
// timed path.

#include <cmath>
#include <cstdio>

#include "perfbench/src/bench.h"
#include "perfbench/src/checks.h"
#include "src/align/inference.h"
#include "src/align/similarity.h"
#include "src/eval/metrics.h"

namespace perfbench {

namespace {

constexpr size_t kPairs = 20000;
constexpr size_t kDim = 64;
constexpr size_t kDenseSubset = 2000;
// Noise scale of the queries relative to the unit-variance targets, and the
// band planted Hits@1 must land in (measured: ~0.47 on every seed; a random
// ranking scores ~0, a noiseless one 1).
constexpr double kNoise = 1.9;
constexpr double kHits1Lo = 0.35;
constexpr double kHits1Hi = 0.60;
// Set-up (input generation) takes ~0.13 s, so its median needs more samples
// than the longer set-ups of the other workloads.
constexpr int kSetupRepeats = 5;

constexpr auto kCosine = openea::align::DistanceMetric::kCosine;

struct Planted {
  openea::core::AlignmentModel model;  // emb1 = queries, emb2 = targets.
  openea::kg::Alignment pairs;         // (query i, its target row).
  openea::math::Matrix dense_queries, dense_targets;  // Truth: identity.
};

Planted MakePlanted(uint64_t seed) {
  InputRng rng(seed * 0x2545F4914F6CDD1DULL + 11);
  Planted p;
  p.model.emb2 = openea::math::Matrix(kPairs, kDim);
  for (float& v : p.model.emb2.Data()) v = static_cast<float>(rng.Gaussian());
  std::vector<int32_t> perm(kPairs);
  for (size_t i = 0; i < kPairs; ++i) perm[i] = static_cast<int32_t>(i);
  for (size_t i = kPairs - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Below(i + 1)]);
  }
  p.model.emb1 = openea::math::Matrix(kPairs, kDim);
  for (size_t i = 0; i < kPairs; ++i) {
    const auto target = p.model.emb2.Row(perm[i]);
    auto query = p.model.emb1.Row(i);
    for (size_t c = 0; c < kDim; ++c) {
      query[c] = target[c] + static_cast<float>(kNoise * rng.Gaussian());
    }
    p.pairs.push_back({static_cast<int32_t>(i), perm[i]});
  }
  p.dense_queries = openea::math::Matrix(kDenseSubset, kDim);
  p.dense_targets = openea::math::Matrix(kDenseSubset, kDim);
  for (size_t i = 0; i < kDenseSubset; ++i) {
    const auto q = p.model.emb1.Row(i);
    const auto t = p.model.emb2.Row(perm[i]);
    std::copy(q.begin(), q.end(), p.dense_queries.Row(i).begin());
    std::copy(t.begin(), t.end(), p.dense_targets.Row(i).begin());
  }
  return p;
}

double Accuracy(const std::vector<int>& match) {
  size_t hits = 0;
  for (size_t i = 0; i < match.size(); ++i) {
    hits += match[i] == static_cast<int>(i) ? 1 : 0;
  }
  return match.empty() ? 0.0 : static_cast<double>(hits) / match.size();
}

struct Matcher {
  const char* metric;  // Per-layer metric name.
  const char* span;
  openea::align::InferenceStrategy strategy;
};
constexpr Matcher kMatchers[] = {
    {"align.greedy_s", "align.InferAlignment(greedy)",
     openea::align::InferenceStrategy::kGreedy},
    {"align.greedy_csls_s", "align.InferAlignment(greedy_csls)",
     openea::align::InferenceStrategy::kGreedyCsls},
    {"align.sm_s", "align.InferAlignment(sm)",
     openea::align::InferenceStrategy::kStableMarriage},
    {"align.km_s", "align.InferAlignment(km)",
     openea::align::InferenceStrategy::kKuhnMunkres},
};

struct RankRun {
  openea::eval::RankingMetrics in_ram, sharded, csls;
  double accuracy[4] = {0, 0, 0, 0};
  CallTimes calls;
  Rep rep;
};

RankRun RunRanking(const Planted& p, const std::string& shard_path) {
  RankRun run;
  run.rep = Measure([&] {
    run.calls.Time("eval.EvaluateRanking", [&] {
      run.in_ram = openea::eval::EvaluateRanking(p.model, p.pairs, kCosine);
    });
    run.calls.Time("eval.EvaluateRankingSharded", [&] {
      run.sharded = openea::eval::EvaluateRankingSharded(p.model, p.pairs,
                                                         kCosine, shard_path);
    });
    run.calls.Time("eval.EvaluateRanking(csls)", [&] {
      run.csls = openea::eval::EvaluateRanking(p.model, p.pairs, kCosine,
                                               /*csls=*/true);
    });
    openea::math::Matrix sim;
    run.calls.Time("align.SimilarityMatrix", [&] {
      sim = openea::align::SimilarityMatrix(p.dense_queries, p.dense_targets,
                                            kCosine);
    });
    for (size_t m = 0; m < 4; ++m) {
      std::vector<int> match;
      run.calls.Time(kMatchers[m].span, [&] {
        match = openea::align::InferAlignment(sim, kMatchers[m].strategy);
      });
      run.accuracy[m] = Accuracy(match);
    }
  });
  return run;
}

}  // namespace

void RunRankEval(const Options& options, Report* report) {
  Planted planted;
  const double setup_s = MedianSetup(options.traced ? 1 : kSetupRepeats, [&] {
    planted = {};  // Free the previous copy first: peak RSS counts one.
    planted = MakePlanted(options.seed);
  });
  const std::string shard_path = options.workdir + "/rank_targets.shard";

  std::vector<RankRun> runs;
  double elapsed = 0.0;
  do {
    runs.push_back(RunRanking(planted, shard_path));
    elapsed += runs.back().rep.wall_s;
  } while (!options.traced && elapsed < options.seconds);

  const RankRun& first = runs.front();
  for (const RankRun& run : runs) {
    report->Check("in_ram_equals_sharded",
                  CheckBitEqual(run.in_ram, run.sharded));
  }
  report->Check("hits1_band",
                CheckBand("planted Hits@1", first.in_ram.hits1, kHits1Lo,
                          kHits1Hi));
  report->Check("km_not_worse",
                CheckKmNotWorse(first.accuracy[3], first.accuracy[0]));
  report->Count(7 * static_cast<int64_t>(runs.size()), 0);
  char line[200];
  std::snprintf(line, sizeof(line),
                "Hits@1 %.4f (CSLS %.4f) MRR %.4f; %zu-subset accuracy: "
                "greedy %.4f greedy+CSLS %.4f SM %.4f KM %.4f",
                first.in_ram.hits1, first.csls.hits1, first.in_ram.mrr,
                kDenseSubset, first.accuracy[0], first.accuracy[1],
                first.accuracy[2], first.accuracy[3]);
  report->Note(line);

  std::vector<double> walls, cpus;
  for (const RankRun& run : runs) {
    walls.push_back(run.rep.wall_s);
    cpus.push_back(run.rep.cpu_s);
  }
  report->Set("setup_s", setup_s);
  report->Set("run_s", Median(walls));
  report->Set("cpu_s", Median(cpus));
  report->Set("hits1", first.in_ram.hits1);
  if (!options.traced) return;

  // Per-call times come from the untraced repetition; the traced one below
  // only feeds the spans inside the program.
  const auto& calls = first.calls.seconds;
  const double rank_s = calls.at("eval.EvaluateRanking");
  report->Set("eval.rank_s", rank_s);
  report->Set("eval.rank_sharded_s", calls.at("eval.EvaluateRankingSharded"));
  report->Set("eval.rank_csls_s", calls.at("eval.EvaluateRanking(csls)"));
  // Nominal flops of the in-RAM scan: one d-long dot product per cell.
  report->Set("eval.gflops", 2.0 * kPairs * kPairs * kDim / rank_s / 1e9);
  for (const Matcher& m : kMatchers) report->Set(m.metric, calls.at(m.span));
  report->Set("parallel.sys_s", first.rep.sys_s);
  report->Set("parallel.util",
              first.rep.cpu_s / (first.rep.wall_s * kThreads));

  StartTracing();
  const RankRun traced = RunRanking(planted, shard_path);
  StopTracing(options.workdir + "/trace.json", report);
  const Ledger ledger;
  ledger.AddSelfTimes(report);
  report->Set("trace.overhead_frac", traced.rep.wall_s / first.rep.wall_s - 1.0);
  report->Set("align.topk_scan_s", ledger.LeafSeconds("topk_scan"));
  report->Set("parallel.jobs",
              static_cast<double>(ledger.Counter("parallel/jobs")));
}

}  // namespace perfbench
