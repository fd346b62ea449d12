#ifndef OPENEA_KG_GRAPH_STATS_H_
#define OPENEA_KG_GRAPH_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/kg/knowledge_graph.h"

namespace openea::kg {

/// String-free topology of a knowledge graph's relation triples: the triple
/// tails grouped by head (heads ascending, each head's tails in triple
/// order) as CSR arrays, plus each entity's degree. Degree statistics and
/// PageRank read nothing else, so a sampler that shrinks a graph round
/// after round (IDS, V2 densification) induces views and builds a real
/// KnowledgeGraph only for its final sample.
class TopologyView {
 public:
  TopologyView() = default;
  /// The topology of all of `graph`.
  explicit TopologyView(const KnowledgeGraph& graph);

  /// The view induced by the entities with `kept[e] != 0` (one flag per
  /// entity of this view). As in KnowledgeGraph::InducedSubgraph, kept
  /// entities are renumbered densely in ascending order and a triple
  /// survives when both of its ends are kept. `to_source`, if non-null,
  /// receives for each id of the result the id it has in this view.
  TopologyView Induced(const std::vector<uint8_t>& kept,
                       std::vector<EntityId>* to_source = nullptr) const;

  size_t NumEntities() const { return degree_.size(); }
  size_t NumTriples() const { return tails_.size(); }

  /// Number of incident triples; a self-loop counts twice, as in
  /// KnowledgeGraph::Degree.
  size_t Degree(EntityId e) const { return degree_[e]; }

  /// Tails of the triples headed by `e`, in triple order.
  std::span<const uint32_t> OutEdges(EntityId e) const {
    return {tails_.data() + offsets_[e], tails_.data() + offsets_[e + 1]};
  }

  /// 2 * #triples / #entities, as KnowledgeGraph::AverageDegree.
  double AverageDegree() const;

 private:
  std::vector<uint32_t> offsets_{0};  // NumEntities() + 1 entries.
  std::vector<uint32_t> tails_;
  std::vector<uint32_t> degree_;
};

/// Degree distribution: proportion[d] is the fraction of entities whose
/// relation degree equals d, for d in [0, max_degree]. Distributions from two
/// graphs can be compared with JensenShannonDivergence below (paper Eq. 6).
struct DegreeDistribution {
  std::vector<double> proportion;

  /// Proportion of entities with degree `d` (0 beyond the recorded range).
  double At(size_t d) const {
    return d < proportion.size() ? proportion[d] : 0.0;
  }
};

/// Computes the degree distribution of `view`.
DegreeDistribution ComputeDegreeDistribution(const TopologyView& view);
/// Same for the whole of `graph`.
DegreeDistribution ComputeDegreeDistribution(const KnowledgeGraph& graph);

/// Jensen–Shannon divergence between two degree distributions, as used by
/// the IDS stopping criterion (Algorithm 1, line 12 / Eq. 6). Uses natural
/// logarithm; result is in [0, ln 2].
double JensenShannonDivergence(const DegreeDistribution& q,
                               const DegreeDistribution& p);

/// Fraction of entities with no incident relation triple (Table 3,
/// "Isolates").
double IsolatedEntityRatio(const KnowledgeGraph& graph);

/// Average local clustering coefficient over the undirected relation graph
/// (Table 3, "Cluster coef."). Entities of degree < 2 contribute 0.
double AverageClusteringCoefficient(const KnowledgeGraph& graph);

/// PageRank over the relation graph treated as a directed graph (head ->
/// tail), with uniform teleport. Returns one score per entity summing to 1.
/// Used by IDS (Algorithm 1, line 8) to bias deletion away from influential
/// entities, and by the PRS baseline sampler.
std::vector<double> PageRank(const TopologyView& view, double damping = 0.85,
                             int iterations = 30);
/// Same for the whole of `graph`.
std::vector<double> PageRank(const KnowledgeGraph& graph,
                             double damping = 0.85, int iterations = 30);

}  // namespace openea::kg

#endif  // OPENEA_KG_GRAPH_STATS_H_
