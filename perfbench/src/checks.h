// Correctness checks of the benchmark's workloads. Each returns an empty
// string when the output is correct and a one-line reason otherwise, so the
// same function serves the workload and the self-test that feeds it a
// corrupted output (RunCheckSelfTest).

#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/datagen/kg_pair.h"
#include "src/eval/metrics.h"

namespace perfbench {

// dataset_15k ---------------------------------------------------------------

/// Both KGs of the sampled pair hold the same number of entities, between
/// n - n/50 and n: IDS stops at n and its final isolate cleanup may remove
/// up to 2% more (sampling::IterativeDegreeSampling).
std::string CheckEntityCounts(const openea::datagen::DatasetPair& pair,
                              size_t n);
/// The reference alignment pairs every entity of both sides exactly once
/// (1-to-1 over n1 x n2 entities).
std::string CheckOneToOne(const openea::kg::Alignment& reference, size_t n1,
                          size_t n2);
/// max(js1, js2) of EvaluateSampleQuality is within the IDS epsilon.
std::string CheckSampleJs(double sample_js, double epsilon);
/// Every repetition with one seed produced the same content fingerprint.
std::string CheckSameFingerprint(const std::vector<uint64_t>& fingerprints);

/// FNV-1a over the pair's entity counts, relation and attribute triples and
/// reference alignment.
uint64_t PairFingerprint(const openea::datagen::DatasetPair& pair);

// train_suite ---------------------------------------------------------------

struct ApproachOutcome {
  std::string name;
  bool degraded = false;
  double hits1 = 0.0;
};
/// More than half of the approaches that are not degraded reach Hits@1 >=
/// `floor`. A single approach below it is a failed operation, counted by
/// the workload; training broken for most approaches is a failed check.
std::string CheckMostAboveChance(const std::vector<ApproachOutcome>& outcomes,
                                 double floor);

// rank_eval -----------------------------------------------------------------

/// The in-RAM and sharded ranking metrics are bit-equal.
std::string CheckBitEqual(const openea::eval::RankingMetrics& in_ram,
                          const openea::eval::RankingMetrics& sharded);
/// `value` lies in [lo, hi].
std::string CheckBand(const std::string& what, double value, double lo,
                      double hi);
/// Kuhn-Munkres matches at least as many planted pairs as greedy.
std::string CheckKmNotWorse(double km_accuracy, double greedy_accuracy);

// serve_100k ----------------------------------------------------------------

/// One parsed topk response.
struct ServedResponse {
  int64_t id = -1;
  bool ok = false;
  std::vector<int> ids;
  std::vector<float> scores;
};
/// Exactly one response per request, in request order: response i answers
/// request first_id + i.
std::string CheckInOrder(const std::vector<ServedResponse>& responses,
                         int64_t first_id, size_t requests);
/// Every ok response holds k ids in [0, num_targets) with scores sorted in
/// non-increasing order.
std::string CheckTopKRows(const std::vector<ServedResponse>& responses,
                          size_t k, size_t num_targets);
/// recall@10 against the exact scan reaches `floor`.
std::string CheckRecall(double recall, double floor);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
