#include "hgn/ego_sampling.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace fedda::hgn {

using graph::EdgeId;
using graph::NodeId;

EgoSubgraph SampleEgoSubgraph(const graph::HeteroGraph& graph,
                              const SimpleHgn& model,
                              const std::vector<NodeId>& targets, int hops,
                              int fanout, core::Rng* rng) {
  FEDDA_CHECK_GE(hops, 0);
  FEDDA_CHECK(rng != nullptr);
  EgoSubgraph sub;

  // BFS with per-node fanout caps. Insertion order defines local ids, so
  // targets occupy a contiguous prefix.
  std::unordered_map<NodeId, int32_t> local_of;
  local_of.reserve(targets.size() * 4);
  auto include = [&](NodeId v) -> int32_t {
    auto [it, inserted] =
        local_of.emplace(v, static_cast<int32_t>(sub.nodes.size()));
    if (inserted) sub.nodes.push_back(v);
    return it->second;
  };

  std::vector<NodeId> frontier;
  for (NodeId v : targets) {
    FEDDA_CHECK(v >= 0 && v < graph.num_nodes()) << "target out of range";
    sub.target_locals.push_back(include(v));
    frontier.push_back(v);
  }

  for (int hop = 0; hop < hops; ++hop) {
    std::vector<NodeId> next_frontier;
    for (NodeId v : frontier) {
      const auto& neighbors = graph.neighbors(v);
      const size_t degree = neighbors.size();
      if (fanout <= 0 || degree <= static_cast<size_t>(fanout)) {
        for (const auto& n : neighbors) {
          if (local_of.find(n.node) == local_of.end()) {
            include(n.node);
            next_frontier.push_back(n.node);
          }
        }
      } else {
        for (size_t idx : rng->SampleWithoutReplacement(
                 degree, static_cast<size_t>(fanout))) {
          const NodeId u = neighbors[idx].node;
          if (local_of.find(u) == local_of.end()) {
            include(u);
            next_frontier.push_back(u);
          }
        }
      }
    }
    frontier = std::move(next_frontier);
  }

  // Message-passing lists over every graph edge internal to the sampled
  // node set (discovered via the included nodes' adjacency, so the cost is
  // bounded by the subgraph's own degree mass, not the global edge count).
  auto src = std::make_shared<std::vector<int32_t>>();
  auto dst = std::make_shared<std::vector<int32_t>>();
  auto ety = std::make_shared<std::vector<int32_t>>();
  std::unordered_set<EdgeId> seen_edges;
  for (const NodeId v : sub.nodes) {
    for (const auto& n : graph.neighbors(v)) {
      auto other = local_of.find(n.node);
      if (other == local_of.end()) continue;
      if (!seen_edges.insert(n.edge).second) continue;
      const int32_t u_local = local_of[graph.edge_src(n.edge)];
      const int32_t v_local = local_of[graph.edge_dst(n.edge)];
      const int32_t t = graph.edge_type(n.edge);
      src->push_back(u_local);
      dst->push_back(v_local);
      ety->push_back(t);
      if (u_local != v_local) {
        src->push_back(v_local);
        dst->push_back(u_local);
        ety->push_back(t);
      }
    }
  }
  if (model.config().add_self_loops) {
    const int32_t self_type = static_cast<int32_t>(model.num_edge_types());
    for (size_t v = 0; v < sub.nodes.size(); ++v) {
      src->push_back(static_cast<int32_t>(v));
      dst->push_back(static_cast<int32_t>(v));
      ety->push_back(self_type);
    }
  }
  sub.mp.src = std::move(src);
  sub.mp.dst = std::move(dst);
  sub.mp.etype = std::move(ety);
  sub.mp.num_nodes = static_cast<int64_t>(sub.nodes.size());

  // Per-type block rows + the permutation assembling them in local order.
  std::vector<int64_t> type_counts(
      static_cast<size_t>(graph.num_node_types()), 0);
  std::vector<int32_t> row_in_block(sub.nodes.size(), 0);
  for (size_t v = 0; v < sub.nodes.size(); ++v) {
    const size_t t = static_cast<size_t>(graph.node_type(sub.nodes[v]));
    row_in_block[v] = static_cast<int32_t>(type_counts[t]++);
  }
  std::vector<int64_t> offsets(type_counts.size(), 0);
  int64_t acc = 0;
  for (size_t t = 0; t < type_counts.size(); ++t) {
    offsets[t] = acc;
    acc += type_counts[t];
  }
  auto perm = std::make_shared<std::vector<int32_t>>(sub.nodes.size());
  for (size_t v = 0; v < sub.nodes.size(); ++v) {
    const size_t t = static_cast<size_t>(graph.node_type(sub.nodes[v]));
    (*perm)[v] = static_cast<int32_t>(offsets[t] + row_in_block[v]);
  }
  sub.mp.node_perm = std::move(perm);
  return sub;
}

std::vector<tensor::Tensor> GatherEgoFeatures(
    const graph::HeteroGraph& graph, const EgoSubgraph& sub) {
  std::vector<tensor::Tensor> blocks;
  // Count per type, then fill rows in local-node order (matching the
  // row_in_block assignment in SampleEgoSubgraph).
  std::vector<int64_t> counts(static_cast<size_t>(graph.num_node_types()), 0);
  for (NodeId v : sub.nodes) {
    counts[static_cast<size_t>(graph.node_type(v))]++;
  }
  for (graph::NodeTypeId t = 0; t < graph.num_node_types(); ++t) {
    blocks.emplace_back(counts[static_cast<size_t>(t)],
                        graph.node_type_info(t).feature_dim);
  }
  std::vector<int64_t> next_row(counts.size(), 0);
  for (NodeId v : sub.nodes) {
    const size_t t = static_cast<size_t>(graph.node_type(v));
    const tensor::Tensor& features = graph.features(
        static_cast<graph::NodeTypeId>(t));
    tensor::Tensor& block = blocks[t];
    const int64_t src_row = graph.type_local_index(v);
    const int64_t dst_row = next_row[t]++;
    const int64_t cols = features.cols();
    FEDDA_CHECK(src_row >= 0 && src_row < features.rows() &&
                dst_row < block.rows() && block.cols() == cols);
    std::copy(features.data() + src_row * cols,
              features.data() + (src_row + 1) * cols,
              block.data() + dst_row * cols);
  }
  return blocks;
}

}  // namespace fedda::hgn
