#include "src/kg/graph_stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/logging.h"

namespace openea::kg {

TopologyView::TopologyView(const KnowledgeGraph& graph) {
  const size_t n = graph.NumEntities();
  degree_.assign(n, 0);
  offsets_.assign(n + 1, 0);
  for (const Triple& t : graph.triples()) {
    ++offsets_[t.head + 1];
    ++degree_[t.head];
    ++degree_[t.tail];
  }
  for (size_t e = 0; e < n; ++e) offsets_[e + 1] += offsets_[e];
  // A stable counting sort: each head's tails keep their triple order.
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  tails_.resize(graph.NumTriples());
  for (const Triple& t : graph.triples()) {
    tails_[fill[t.head]++] = static_cast<uint32_t>(t.tail);
  }
}

TopologyView TopologyView::Induced(const std::vector<uint8_t>& kept,
                                   std::vector<EntityId>* to_source) const {
  OPENEA_CHECK_EQ(kept.size(), NumEntities());
  constexpr uint32_t kDropped = UINT32_MAX;
  std::vector<uint32_t> remap(NumEntities(), kDropped);
  uint32_t kept_count = 0;
  for (size_t e = 0; e < NumEntities(); ++e) {
    if (kept[e] != 0) remap[e] = kept_count++;
  }
  TopologyView out;
  out.degree_.assign(kept_count, 0);
  out.offsets_.reserve(kept_count + 1);
  if (to_source != nullptr) {
    to_source->clear();
    to_source->reserve(kept_count);
  }
  for (size_t e = 0; e < NumEntities(); ++e) {
    const uint32_t head = remap[e];
    if (head == kDropped) continue;
    if (to_source != nullptr) to_source->push_back(static_cast<EntityId>(e));
    for (const uint32_t tail : OutEdges(static_cast<EntityId>(e))) {
      if (remap[tail] == kDropped) continue;
      out.tails_.push_back(remap[tail]);
      ++out.degree_[head];
      ++out.degree_[remap[tail]];
    }
    out.offsets_.push_back(static_cast<uint32_t>(out.tails_.size()));
  }
  return out;
}

double TopologyView::AverageDegree() const {
  if (NumEntities() == 0) return 0.0;
  return 2.0 * static_cast<double>(NumTriples()) /
         static_cast<double>(NumEntities());
}

DegreeDistribution ComputeDegreeDistribution(const TopologyView& view) {
  DegreeDistribution dist;
  const size_t n = view.NumEntities();
  if (n == 0) return dist;
  size_t max_degree = 0;
  for (size_t e = 0; e < n; ++e) {
    max_degree = std::max(max_degree, view.Degree(static_cast<EntityId>(e)));
  }
  dist.proportion.assign(max_degree + 1, 0.0);
  for (size_t e = 0; e < n; ++e) {
    dist.proportion[view.Degree(static_cast<EntityId>(e))] += 1.0;
  }
  for (double& p : dist.proportion) p /= static_cast<double>(n);
  return dist;
}

DegreeDistribution ComputeDegreeDistribution(const KnowledgeGraph& graph) {
  return ComputeDegreeDistribution(TopologyView(graph));
}

double JensenShannonDivergence(const DegreeDistribution& q,
                               const DegreeDistribution& p) {
  const size_t n = std::max(q.proportion.size(), p.proportion.size());
  double js = 0.0;
  for (size_t d = 0; d < n; ++d) {
    const double qd = q.At(d);
    const double pd = p.At(d);
    const double md = 0.5 * (qd + pd);
    if (md <= 0.0) continue;
    if (qd > 0.0) js += 0.5 * qd * std::log(qd / md);
    if (pd > 0.0) js += 0.5 * pd * std::log(pd / md);
  }
  return js;
}

double IsolatedEntityRatio(const KnowledgeGraph& graph) {
  const size_t n = graph.NumEntities();
  if (n == 0) return 0.0;
  size_t isolated = 0;
  for (size_t e = 0; e < n; ++e) {
    if (graph.Degree(static_cast<EntityId>(e)) == 0) ++isolated;
  }
  return static_cast<double>(isolated) / static_cast<double>(n);
}

double AverageClusteringCoefficient(const KnowledgeGraph& graph) {
  const size_t n = graph.NumEntities();
  if (n == 0) return 0.0;
  // Build undirected unique-neighbour sets.
  std::vector<std::unordered_set<EntityId>> adj(n);
  for (const Triple& t : graph.triples()) {
    if (t.head == t.tail) continue;
    adj[t.head].insert(t.tail);
    adj[t.tail].insert(t.head);
  }
  double total = 0.0;
  for (size_t e = 0; e < n; ++e) {
    const auto& nbrs = adj[e];
    const size_t k = nbrs.size();
    if (k < 2) continue;
    size_t links = 0;
    for (EntityId u : nbrs) {
      // Count each pair once by requiring u < v.
      for (EntityId v : nbrs) {
        if (u < v && adj[u].count(v) > 0) ++links;
      }
    }
    total += 2.0 * static_cast<double>(links) /
             (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  return total / static_cast<double>(n);
}

std::vector<double> PageRank(const TopologyView& view, double damping,
                             int iterations) {
  const size_t n = view.NumEntities();
  if (n == 0) return {};
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (size_t e = 0; e < n; ++e) {
      const std::span<const uint32_t> outs =
          view.OutEdges(static_cast<EntityId>(e));
      if (outs.empty()) {
        dangling += rank[e];
        continue;
      }
      const double share = rank[e] / static_cast<double>(outs.size());
      for (const uint32_t v : outs) next[v] += share;
    }
    const double base =
        (1.0 - damping) / static_cast<double>(n) +
        damping * dangling / static_cast<double>(n);
    for (size_t e = 0; e < n; ++e) next[e] = base + damping * next[e];
    rank.swap(next);
  }
  return rank;
}

std::vector<double> PageRank(const KnowledgeGraph& graph, double damping,
                             int iterations) {
  return PageRank(TopologyView(graph), damping, iterations);
}

}  // namespace openea::kg
