#include "ising/partition.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace cim::ising {

std::size_t Partition::max_group() const {
  std::size_t widest = 0;
  for (const auto& g : groups) widest = std::max(widest, g.size());
  return widest;
}

namespace {

/// Index-sorted adjacency lists of the coupling graph.
std::vector<std::vector<SpinIndex>> adjacency(const GenericModel& model) {
  std::vector<std::vector<SpinIndex>> adj(model.size());
  for (const GenericModel::Coupling& c : model.couplings()) {
    adj[c.a].push_back(c.b);
    adj[c.b].push_back(c.a);
  }
  for (auto& row : adj) std::sort(row.begin(), row.end());
  return adj;
}

Partition chromatic(const GenericModel& model) {
  const auto adj = adjacency(model);
  const std::size_t n = model.size();
  std::vector<std::uint32_t> color(n, 0);
  std::uint32_t color_count = 0;
  std::vector<char> used;
  for (SpinIndex v = 0; v < n; ++v) {
    used.assign(color_count + 1, 0);
    for (const SpinIndex u : adj[v]) {
      if (u < v) used[color[u]] = 1;
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    color[v] = c;
    color_count = std::max(color_count, c + 1);
  }
  Partition partition;
  partition.strategy = GroupStrategy::kChromatic;
  partition.parallel_safe = true;
  partition.groups.resize(color_count);
  for (SpinIndex v = 0; v < n; ++v) partition.groups[color[v]].push_back(v);
  return partition;
}

/// Chunks `order` into groups of at most `block` members.
Partition chunked(std::vector<SpinIndex> order, std::uint32_t block,
                  GroupStrategy strategy) {
  Partition partition;
  partition.strategy = strategy;
  partition.parallel_safe = false;
  for (std::size_t start = 0; start < order.size(); start += block) {
    const std::size_t stop = std::min(order.size(), start + block);
    partition.groups.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(start),
                                  order.begin() + static_cast<std::ptrdiff_t>(stop));
  }
  return partition;
}

}  // namespace

Partition build_partition(const GenericModel& model, GroupStrategy strategy,
                          std::uint32_t block) {
  CIM_REQUIRE(block >= 1, "partition block width must be at least 1");
  switch (strategy) {
    case GroupStrategy::kChromatic:
      return chromatic(model);
    case GroupStrategy::kIndexBlocks: {
      std::vector<SpinIndex> order(model.size());
      std::iota(order.begin(), order.end(), 0U);
      return chunked(std::move(order), block, GroupStrategy::kIndexBlocks);
    }
  }
  throw ConfigError("unknown group strategy");
}

const char* group_strategy_name(GroupStrategy strategy) {
  switch (strategy) {
    case GroupStrategy::kChromatic:
      return "chromatic";
    case GroupStrategy::kIndexBlocks:
      return "index-blocks";
  }
  return "unknown";
}

std::optional<GroupStrategy> parse_group_strategy(const std::string& name) {
  for (const GroupStrategy s : all_group_strategies()) {
    if (name == group_strategy_name(s)) return s;
  }
  return std::nullopt;
}

std::vector<GroupStrategy> all_group_strategies() {
  return {GroupStrategy::kChromatic, GroupStrategy::kIndexBlocks};
}

}  // namespace cim::ising
