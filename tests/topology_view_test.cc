// Equivalence of kg::TopologyView with the string-carrying path it replaces
// in the samplers: for a kept subset, the induced view's ids, out-edges,
// degrees, degree distribution and PageRank must be bit-equal to those of
// KnowledgeGraph::InducedSubgraph read through Degree() and the reference
// PageRank below.

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/datagen/synthetic_kg.h"
#include "src/kg/graph_stats.h"
#include "src/kg/knowledge_graph.h"

namespace openea::kg {
namespace {

/// PageRank over a KnowledgeGraph's own triples: the per-graph
/// implementation TopologyView's PageRank must reproduce bit for bit.
std::vector<double> ReferencePageRank(const KnowledgeGraph& graph,
                                      double damping, int iterations) {
  const size_t n = graph.NumEntities();
  if (n == 0) return {};
  std::vector<std::vector<EntityId>> out_edges(n);
  for (const Triple& t : graph.triples()) out_edges[t.head].push_back(t.tail);

  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (size_t e = 0; e < n; ++e) {
      const auto& outs = out_edges[e];
      if (outs.empty()) {
        dangling += rank[e];
        continue;
      }
      const double share = rank[e] / static_cast<double>(outs.size());
      for (EntityId v : outs) next[v] += share;
    }
    const double base =
        (1.0 - damping) / static_cast<double>(n) +
        damping * dangling / static_cast<double>(n);
    for (size_t e = 0; e < n; ++e) next[e] = base + damping * next[e];
    rank.swap(next);
  }
  return rank;
}

/// Degree histogram read through KnowledgeGraph::Degree().
DegreeDistribution ReferenceDegreeDistribution(const KnowledgeGraph& graph) {
  DegreeDistribution dist;
  const size_t n = graph.NumEntities();
  if (n == 0) return dist;
  size_t max_degree = 0;
  for (size_t e = 0; e < n; ++e) {
    max_degree = std::max(max_degree, graph.Degree(static_cast<EntityId>(e)));
  }
  dist.proportion.assign(max_degree + 1, 0.0);
  for (size_t e = 0; e < n; ++e) {
    dist.proportion[graph.Degree(static_cast<EntityId>(e))] += 1.0;
  }
  for (double& p : dist.proportion) p /= static_cast<double>(n);
  return dist;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  // memcmp must not see the null data() of an empty vector.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Induces `kept` both ways and checks every statistic the samplers read.
void ExpectViewMatchesInducedSubgraph(const KnowledgeGraph& graph,
                                      const std::vector<uint8_t>& kept) {
  std::unordered_set<EntityId> kept_set;
  for (size_t e = 0; e < kept.size(); ++e) {
    if (kept[e] != 0) kept_set.insert(static_cast<EntityId>(e));
  }
  std::vector<EntityId> old_to_new;
  const KnowledgeGraph sub = graph.InducedSubgraph(kept_set, &old_to_new);
  std::vector<EntityId> to_source;
  const TopologyView view = TopologyView(graph).Induced(kept, &to_source);

  ASSERT_EQ(view.NumEntities(), sub.NumEntities());
  ASSERT_EQ(view.NumTriples(), sub.NumTriples());
  ASSERT_EQ(to_source.size(), sub.NumEntities());
  for (size_t e = 0; e < to_source.size(); ++e) {
    EXPECT_EQ(old_to_new[to_source[e]], static_cast<EntityId>(e));
  }
  std::vector<std::vector<uint32_t>> outs(sub.NumEntities());
  for (const Triple& t : sub.triples()) {
    outs[t.head].push_back(static_cast<uint32_t>(t.tail));
  }
  for (size_t e = 0; e < sub.NumEntities(); ++e) {
    const EntityId id = static_cast<EntityId>(e);
    EXPECT_EQ(view.Degree(id), sub.Degree(id)) << "entity " << e;
    const auto edges = view.OutEdges(id);
    EXPECT_EQ(std::vector<uint32_t>(edges.begin(), edges.end()), outs[e])
        << "entity " << e;
  }
  const double avg_view = view.AverageDegree();
  const double avg_sub = sub.AverageDegree();
  EXPECT_EQ(std::memcmp(&avg_view, &avg_sub, sizeof(double)), 0);
  EXPECT_TRUE(BitEqual(ComputeDegreeDistribution(view).proportion,
                       ReferenceDegreeDistribution(sub).proportion));
  EXPECT_TRUE(BitEqual(ComputeDegreeDistribution(sub).proportion,
                       ReferenceDegreeDistribution(sub).proportion));
  for (const int iterations : {0, 1, 20}) {
    EXPECT_TRUE(BitEqual(PageRank(view, 0.85, iterations),
                         ReferencePageRank(sub, 0.85, iterations)))
        << iterations << " iterations";
  }
  EXPECT_TRUE(BitEqual(PageRank(sub), ReferencePageRank(sub, 0.85, 30)));
}

/// Six entities: a self-loop on a, parallel a -> b edges (same and
/// different relation), a 2-cycle b <-> c, d pointing at itself and c, e a
/// sink, and f isolated.
KnowledgeGraph MakeAwkwardGraph() {
  KnowledgeGraph g;
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) g.AddEntity(name);
  const RelationId r = g.AddRelation("r");
  const RelationId s = g.AddRelation("s");
  g.AddTriple(0, r, 0);
  g.AddTriple(0, r, 1);
  g.AddTriple(0, r, 1);
  g.AddTriple(0, s, 1);
  g.AddTriple(1, r, 2);
  g.AddTriple(2, s, 1);
  g.AddTriple(3, r, 3);
  g.AddTriple(3, s, 2);
  g.AddTriple(2, r, 4);
  g.AddTriple(0, s, 4);
  g.BuildIndex();
  return g;
}

std::vector<uint8_t> RandomKept(size_t n, double keep, Rng& rng) {
  std::vector<uint8_t> kept(n, 0);
  for (uint8_t& k : kept) k = rng.NextDouble() < keep ? 1 : 0;
  return kept;
}

TEST(TopologyViewTest, WholeGraphMatchesKnowledgeGraph) {
  const KnowledgeGraph g = MakeAwkwardGraph();
  const TopologyView view(g);
  ASSERT_EQ(view.NumEntities(), 6u);
  EXPECT_EQ(view.NumTriples(), 10u);
  EXPECT_EQ(view.Degree(0), 6u);  // The self-loop counts twice.
  EXPECT_EQ(view.Degree(5), 0u);
  for (EntityId e = 0; e < 6; ++e) EXPECT_EQ(view.Degree(e), g.Degree(e));
  const auto a_out = view.OutEdges(0);
  EXPECT_EQ(std::vector<uint32_t>(a_out.begin(), a_out.end()),
            (std::vector<uint32_t>{0, 1, 1, 1, 4}));
  ExpectViewMatchesInducedSubgraph(g, std::vector<uint8_t>(6, 1));
}

TEST(TopologyViewTest, EverySubsetOfSmallGraphMatches) {
  // All 64 kept subsets, including the empty one and every single entity.
  const KnowledgeGraph g = MakeAwkwardGraph();
  for (uint32_t mask = 0; mask < 64; ++mask) {
    std::vector<uint8_t> kept(6);
    for (size_t e = 0; e < 6; ++e) kept[e] = (mask >> e) & 1;
    SCOPED_TRACE("mask " + std::to_string(mask));
    ExpectViewMatchesInducedSubgraph(g, kept);
  }
}

TEST(TopologyViewTest, EmptyAndSingleEntityGraphs) {
  const KnowledgeGraph empty;
  const TopologyView empty_view(empty);
  EXPECT_EQ(empty_view.NumEntities(), 0u);
  EXPECT_TRUE(PageRank(empty_view).empty());
  EXPECT_TRUE(ComputeDegreeDistribution(empty_view).proportion.empty());
  EXPECT_EQ(empty_view.AverageDegree(), 0.0);
  ExpectViewMatchesInducedSubgraph(empty, {});

  KnowledgeGraph lone;
  lone.AddEntity("x");
  lone.BuildIndex();
  ExpectViewMatchesInducedSubgraph(lone, {1});
  ExpectViewMatchesInducedSubgraph(lone, {0});

  KnowledgeGraph loop = lone;
  loop.AddTriple(0, loop.AddRelation("r"), 0);
  loop.BuildIndex();
  EXPECT_EQ(TopologyView(loop).Degree(0), 2u);
  ExpectViewMatchesInducedSubgraph(loop, {1});
}

TEST(TopologyViewTest, RandomSubsetsOfGeneratedGraphsMatch) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    datagen::SyntheticKgConfig config;
    config.num_entities = 300;
    config.num_relations = 12;
    config.seed = seed;
    KnowledgeGraph g = datagen::GenerateSyntheticKg(config).graph;
    // Extra isolates, self-loops and parallel edges on top of the
    // generator's output.
    Rng rng(seed * 31);
    for (int i = 0; i < 10; ++i) g.AddEntity("isolate" + std::to_string(i));
    for (int i = 0; i < 15; ++i) {
      const EntityId e = static_cast<EntityId>(rng.NextBounded(300));
      g.AddTriple(e, 0, e);
      g.AddTriple(g.triples()[rng.NextBounded(g.NumTriples())]);
    }
    g.BuildIndex();
    for (const double keep : {0.0, 0.05, 0.4, 0.8, 1.0}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " keep " +
                   std::to_string(keep));
      ExpectViewMatchesInducedSubgraph(
          g, RandomKept(g.NumEntities(), keep, rng));
    }
    // Inducing a view of an induced view composes like inducing once.
    const std::vector<uint8_t> outer = RandomKept(g.NumEntities(), 0.6, rng);
    std::vector<EntityId> outer_ids;
    const TopologyView once = TopologyView(g).Induced(outer, &outer_ids);
    const std::vector<uint8_t> inner =
        RandomKept(once.NumEntities(), 0.6, rng);
    std::vector<uint8_t> both(g.NumEntities(), 0);
    for (size_t e = 0; e < inner.size(); ++e) both[outer_ids[e]] = inner[e];
    EXPECT_TRUE(BitEqual(PageRank(once.Induced(inner), 0.85, 20),
                         PageRank(TopologyView(g).Induced(both), 0.85, 20)));
  }
}

}  // namespace
}  // namespace openea::kg
