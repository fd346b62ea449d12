#include "perfbench/src/checks.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "perfbench/src/bench.h"

namespace perfbench {

namespace {

std::string Fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

uint64_t Fnv(uint64_t h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string CheckEntityCounts(const openea::datagen::DatasetPair& pair,
                              size_t n) {
  const size_t n1 = pair.kg1.NumEntities(), n2 = pair.kg2.NumEntities();
  if (n1 == n2 && n1 <= n && n1 >= n - n / 50) return "";
  return "entity counts " + std::to_string(n1) + "/" + std::to_string(n2) +
         ", expected equal and within 2% below " + std::to_string(n);
}

std::string CheckOneToOne(const openea::kg::Alignment& reference, size_t n1,
                          size_t n2) {
  if (reference.empty()) return "empty reference alignment";
  std::unordered_set<int32_t> lefts, rights;
  for (const auto& p : reference) {
    if (p.left < 0 || static_cast<size_t>(p.left) >= n1 || p.right < 0 ||
        static_cast<size_t>(p.right) >= n2) {
      return "reference pair out of range";
    }
    if (!lefts.insert(p.left).second) return "left entity aligned twice";
    if (!rights.insert(p.right).second) return "right entity aligned twice";
  }
  return "";
}

std::string CheckSampleJs(double sample_js, double epsilon) {
  if (sample_js >= 0.0 && sample_js <= epsilon) return "";
  return Fmt("sample JS %.4f exceeds epsilon %.3f", sample_js, epsilon);
}

std::string CheckSameFingerprint(const std::vector<uint64_t>& fingerprints) {
  for (const uint64_t f : fingerprints) {
    if (f != fingerprints.front()) return "content fingerprint differs";
  }
  return fingerprints.empty() ? "no fingerprint" : "";
}

uint64_t PairFingerprint(const openea::datagen::DatasetPair& pair) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto* kg : {&pair.kg1, &pair.kg2}) {
    h = Fnv(h, static_cast<int64_t>(kg->NumEntities()));
    for (const auto& t : kg->triples()) {
      h = Fnv(Fnv(Fnv(h, t.head), t.relation), t.tail);
    }
    for (const auto& t : kg->attribute_triples()) {
      h = Fnv(Fnv(Fnv(h, t.entity), t.attribute), t.value);
    }
  }
  for (const auto& p : pair.reference) h = Fnv(Fnv(h, p.left), p.right);
  return h;
}

std::string CheckMostAboveChance(const std::vector<ApproachOutcome>& outcomes,
                                 double floor) {
  int trained = 0, above = 0;
  for (const auto& o : outcomes) {
    if (o.degraded) continue;
    ++trained;
    above += o.hits1 >= floor ? 1 : 0;
  }
  if (2 * above > trained) return "";
  return std::to_string(above) + " of " + std::to_string(trained) +
         Fmt(" trained approaches reach Hits@1 %.4f", floor, 0);
}

std::string CheckBitEqual(const openea::eval::RankingMetrics& in_ram,
                          const openea::eval::RankingMetrics& sharded) {
  const double a[] = {in_ram.hits1, in_ram.hits5, in_ram.mr, in_ram.mrr};
  const double b[] = {sharded.hits1, sharded.hits5, sharded.mr, sharded.mrr};
  if (std::memcmp(a, b, sizeof(a)) == 0) return "";
  return Fmt("in-RAM and sharded metrics differ (hits1 %.17g vs %.17g)",
             in_ram.hits1, sharded.hits1);
}

std::string CheckBand(const std::string& what, double value, double lo,
                      double hi) {
  if (value >= lo && value <= hi) return "";
  return what + Fmt(" %.4f", value, 0) + Fmt(" outside [%.3f, %.3f]", lo, hi);
}

std::string CheckKmNotWorse(double km_accuracy, double greedy_accuracy) {
  if (km_accuracy >= greedy_accuracy) return "";
  return Fmt("KM accuracy %.4f below greedy %.4f", km_accuracy,
             greedy_accuracy);
}

std::string CheckInOrder(const std::vector<ServedResponse>& responses,
                         int64_t first_id, size_t requests) {
  if (responses.size() != requests) {
    return "got " + std::to_string(responses.size()) + " responses for " +
           std::to_string(requests) + " requests";
  }
  for (size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].id != first_id + static_cast<int64_t>(i)) {
      return "response " + std::to_string(i) + " answers request " +
             std::to_string(responses[i].id) + " out of order";
    }
  }
  return "";
}

std::string CheckTopKRows(const std::vector<ServedResponse>& responses,
                          size_t k, size_t num_targets) {
  for (const auto& r : responses) {
    if (!r.ok) continue;
    if (r.ids.size() != k || r.scores.size() != k) {
      return "request " + std::to_string(r.id) + " returned " +
             std::to_string(r.ids.size()) + " ids";
    }
    for (size_t j = 0; j < k; ++j) {
      if (r.ids[j] < 0 || static_cast<size_t>(r.ids[j]) >= num_targets) {
        return "request " + std::to_string(r.id) + " id out of range";
      }
      if (j > 0 && !(r.scores[j] <= r.scores[j - 1])) {
        return "request " + std::to_string(r.id) + " scores not sorted";
      }
    }
  }
  return "";
}

std::string CheckRecall(double recall, double floor) {
  if (recall >= floor) return "";
  return Fmt("recall@10 %.4f below floor %.3f", recall, floor);
}

int RunCheckSelfTest() {
  int missed = 0;
  auto expect = [&](const char* name, const std::string& good,
                    const std::string& bad) {
    if (!good.empty()) {
      std::fprintf(stderr, "self-test: %s rejects a correct output: %s\n",
                   name, good.c_str());
      ++missed;
    }
    if (bad.empty()) {
      std::fprintf(stderr, "self-test: %s accepts a corrupted output\n",
                   name);
      ++missed;
    }
  };

  openea::datagen::DatasetPair pair;
  for (int i = 0; i < 3; ++i) {
    pair.kg1.AddEntity("a" + std::to_string(i));
    pair.kg2.AddEntity("b" + std::to_string(i));
    pair.reference.push_back({i, 2 - i});
  }
  pair.kg1.AddTriple(0, 0, 1);
  openea::datagen::DatasetPair uneven = pair;
  uneven.kg2.AddEntity("b3");
  expect("entity_counts", CheckEntityCounts(pair, 3),
         CheckEntityCounts(uneven, 3));
  expect("entity_counts(short)", CheckEntityCounts(pair, 3),
         CheckEntityCounts(pair, 200));

  openea::kg::Alignment twice = pair.reference;
  twice[1].right = twice[0].right;
  expect("one_to_one", CheckOneToOne(pair.reference, 3, 3),
         CheckOneToOne(twice, 3, 3));
  expect("sample_js", CheckSampleJs(0.02, 0.05), CheckSampleJs(0.07, 0.05));

  openea::datagen::DatasetPair moved = pair;
  moved.reference[0].left = 1;
  expect("fingerprint",
         CheckSameFingerprint({PairFingerprint(pair), PairFingerprint(pair)}),
         CheckSameFingerprint({PairFingerprint(pair),
                               PairFingerprint(moved)}));

  std::vector<ApproachOutcome> outcomes = {
      {"A", false, 0.4}, {"B", true, 0.0}, {"C", false, 0.3},
      {"D", false, 0.001}};
  std::vector<ApproachOutcome> at_chance = outcomes;
  at_chance[0].hits1 = 0.001;
  expect("most_above_chance", CheckMostAboveChance(outcomes, 0.02),
         CheckMostAboveChance(at_chance, 0.02));

  openea::eval::RankingMetrics metrics{0.5, 0.7, 3.5, 0.6};
  openea::eval::RankingMetrics nudged = metrics;
  nudged.mrr = std::nextafter(nudged.mrr, 1.0);
  expect("bit_equal", CheckBitEqual(metrics, metrics),
         CheckBitEqual(metrics, nudged));
  expect("band", CheckBand("hits1", 0.5, 0.3, 0.7),
         CheckBand("hits1", 0.95, 0.3, 0.7));
  expect("km_not_worse", CheckKmNotWorse(0.8, 0.7),
         CheckKmNotWorse(0.6, 0.7));

  std::vector<ServedResponse> served = {
      {10, true, {3, 1}, {0.9f, 0.5f}}, {11, true, {2, 0}, {0.8f, 0.8f}}};
  std::vector<ServedResponse> swapped = {served[1], served[0]};
  std::vector<ServedResponse> dropped = {served[0]};
  expect("in_order", CheckInOrder(served, 10, 2),
         CheckInOrder(swapped, 10, 2));
  expect("in_order(count)", CheckInOrder(served, 10, 2),
         CheckInOrder(dropped, 10, 2));
  std::vector<ServedResponse> unsorted = served;
  std::swap(unsorted[0].scores[0], unsorted[0].scores[1]);
  std::vector<ServedResponse> out_of_range = served;
  out_of_range[1].ids[0] = 4;
  expect("topk_rows(sorted)", CheckTopKRows(served, 2, 4),
         CheckTopKRows(unsorted, 2, 4));
  expect("topk_rows(range)", CheckTopKRows(served, 2, 4),
         CheckTopKRows(out_of_range, 2, 4));
  expect("recall", CheckRecall(0.9, 0.8), CheckRecall(0.7, 0.8));
  return missed;
}

}  // namespace perfbench
