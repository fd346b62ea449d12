#include <algorithm>

#include "perfbench/src/bench.h"

namespace perfbench {

namespace {

// Layer (module under src/) of each span the program emits, by leaf name.
// The core "train" phase span wraps the approach's own Train(), so the part
// of it no finer span covers is approach code.
struct LeafLayer {
  const char* leaf;
  const char* layer;
};
constexpr LeafLayer kLeafLayers[] = {
    {"datagen", "datagen"},
    {"ids", "sampling"},
    {"cross_validation", "core"},
    {"fold_split", "core"},
    {"fold", "core"},
    {"eval", "core"},
    {"train", "approaches"},
    {"train_epoch", "interaction"},
    {"calibrate_epoch", "interaction"},
    {"eval_ranking", "eval"},
    {"eval_ranking_candidates", "eval"},
    {"eval_ranking_sharded", "eval"},
    {"similarity", "eval"},
    {"rank_kernel", "eval"},
    {"eval_abstention", "eval"},
    {"eval_abstention_sweep", "eval"},
    {"streaming_topk", "align"},
    {"topk_psi", "align"},
    {"topk_scan", "align"},
    {"sharded_topk", "align"},
    {"infer_alignment", "align"},
    {"similarity_matrix", "align"},
    {"ann_ivf_build", "align"},
    {"ann_ivf_topk", "align"},
    {"lsh_topk", "align"},
    {"shard_prefetch", "math"},
    {"serve_session", "serve"},
    {"serve_flush", "serve"},
    {"serve_request", "serve"},
};

constexpr const char* kLayers[] = {"datagen", "sampling",    "core",
                                   "approaches", "interaction", "math",
                                   "eval",    "align",       "serve"};

std::string Leaf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string Root(const std::string& path) {
  return path.substr(0, path.find('/'));
}

bool IsBenchSpan(const std::string& name) {
  return name.find('.') != std::string::npos;
}

/// Layer of one span: "<layer>" for a bench span "<layer>.<Call>", the
/// table entry for a program span, "" when unknown.
std::string LayerOf(const std::string& leaf) {
  if (IsBenchSpan(leaf)) return leaf.substr(0, leaf.find('.'));
  for (const auto& entry : kLeafLayers) {
    if (leaf == entry.leaf) return entry.layer;
  }
  return "";
}

}  // namespace

Ledger::Ledger() {
  for (const auto& span : openea::telemetry::SnapshotSpans()) {
    span_seconds_[span.path] += span.total_ms / 1e3;
  }
  counters_ = openea::telemetry::SnapshotMetrics().counters;
}

double Ledger::LeafSeconds(const std::string& leaf) const {
  double total = 0.0;
  for (const auto& [path, seconds] : span_seconds_) {
    if (Leaf(path) == leaf) total += seconds;
  }
  return total;
}

double Ledger::LeafSecondsUnder(const std::string& leaf,
                                const std::string& ancestor) const {
  double total = 0.0;
  for (const auto& [path, seconds] : span_seconds_) {
    if (Leaf(path) == leaf &&
        ("/" + path + "/").find("/" + ancestor + "/") != std::string::npos &&
        path != ancestor) {
      total += seconds;
    }
  }
  return total;
}

uint64_t Ledger::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

uint64_t Ledger::CounterSum(const std::string& prefix,
                            const std::string& suffix) const {
  uint64_t total = 0;
  for (const auto& [name, value] : counters_) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

void Ledger::AddSelfTimes(Report* report) const {
  // Only threads the benchmark drives (their root span is a bench span)
  // count: pool workers run chunks of a caller's span in parallel, and
  // their time is CPU time, not wall time of the run.
  std::map<std::string, double> self_by_layer;
  double rooted = 0.0, unattributed = 0.0;
  for (const auto& [path, seconds] : span_seconds_) {
    if (!IsBenchSpan(Root(path))) continue;
    double children = 0.0;
    const std::string prefix = path + "/";
    for (auto it = span_seconds_.upper_bound(prefix);
         it != span_seconds_.end() && it->first.compare(0, prefix.size(),
                                                        prefix) == 0;
         ++it) {
      if (it->first.find('/', prefix.size()) == std::string::npos) {
        children += it->second;
      }
    }
    const double self = std::max(0.0, seconds - children);
    const std::string leaf = Leaf(path);
    const std::string layer = LayerOf(leaf);
    self_by_layer[layer] += self;
    if (path == Root(path)) rooted += seconds;
    // Time inside a call that no span of the program covers, or that only
    // a span this ledger cannot place covers.
    if (layer.empty() || IsBenchSpan(leaf)) unattributed += self;
  }
  for (const char* layer : kLayers) {
    report->Set(std::string("self.") + layer + "_s", self_by_layer[layer]);
  }
  report->Set("trace.unattributed_frac",
              rooted > 0 ? unattributed / rooted : 0.0);
}

}  // namespace perfbench
