#include "geo/kdtree.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace cim::geo {

KdTree::KdTree(std::span<const Point> points)
    : points_(points.begin(), points.end()),
      order_(points_.size()),
      active_(points_.size(), 1),
      active_count_(points_.size()) {
  for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  if (!points_.empty()) {
    nodes_.reserve(2 * points_.size() / kLeafSize + 2);
    root_ = build(0, static_cast<std::uint32_t>(order_.size()));
  }
}

std::int32_t KdTree::build(std::uint32_t begin, std::uint32_t end) {
  Node node;
  node.begin = begin;
  node.end = end;
  for (std::uint32_t i = begin; i < end; ++i) {
    node.box.expand(points_[order_[i]]);
  }
  const auto index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node);

  if (end - begin > kLeafSize) {
    const std::uint8_t axis =
        node.box.width() >= node.box.height() ? 0 : 1;
    const std::uint32_t mid = begin + (end - begin) / 2;
    std::nth_element(order_.begin() + begin, order_.begin() + mid,
                     order_.begin() + end,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return axis == 0 ? points_[a].x < points_[b].x
                                        : points_[a].y < points_[b].y;
                     });
    const Point median = points_[order_[mid]];
    const std::int32_t left = build(begin, mid);
    const std::int32_t right = build(mid, end);
    nodes_[static_cast<std::size_t>(index)].left = left;
    nodes_[static_cast<std::size_t>(index)].right = right;
    nodes_[static_cast<std::size_t>(index)].axis = axis;
    nodes_[static_cast<std::size_t>(index)].split =
        static_cast<float>(axis == 0 ? median.x : median.y);
  }
  return index;
}

namespace {
/// Max-heap entry for k-NN search.
struct HeapItem {
  double dist2;
  std::size_t index;
  bool operator<(const HeapItem& other) const { return dist2 < other.dist2; }
};

/// k-NN search buffers, reused across queries. Thread-local rather than
/// tree members because one const tree serves concurrent queries (the
/// neighbour-list build).
struct QueryScratch {
  std::vector<HeapItem> heap;  ///< max-heap of the current k best
  std::vector<std::int32_t> stack;
};

QueryScratch& query_scratch() {
  thread_local QueryScratch scratch;
  return scratch;
}
}  // namespace

std::size_t KdTree::nearest(Point query, std::size_t exclude) const {
  const auto result = nearest_k(query, 1, exclude);
  return result.empty() ? npos : result.front();
}

std::vector<std::size_t> KdTree::nearest_k(Point query, std::size_t k,
                                           std::size_t exclude) const {
  std::vector<std::size_t> out;
  nearest_k(query, k, out, exclude);
  return out;
}

void KdTree::nearest_k(Point query, std::size_t k,
                       std::vector<std::size_t>& out,
                       std::size_t exclude) const {
  out.clear();
  if (root_ < 0 || k == 0) return;

  QueryScratch& scratch = query_scratch();
  std::vector<HeapItem>& best = scratch.heap;
  best.clear();
  const auto worst = [&] {
    return best.size() < k ? std::numeric_limits<double>::infinity()
                           : best.front().dist2;
  };

  // Explicit stack of node indices, pruned by box distance.
  std::vector<std::int32_t>& stack = scratch.stack;
  stack.assign(1, root_);
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (node.box.empty() ||
        node.box.squared_distance_to(query) > worst()) {
      continue;
    }
    if (node.leaf()) {
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        const std::size_t p = order_[i];
        if (!active_[p] || p == exclude) continue;
        const double d2 = squared_distance(points_[p], query);
        if (d2 < worst()) {
          best.push_back({d2, p});
          std::push_heap(best.begin(), best.end());
          if (best.size() > k) {
            std::pop_heap(best.begin(), best.end());
            best.pop_back();
          }
        }
      }
      continue;
    }
    // Descend the nearer child last so it is popped first.
    const double qcoord = node.axis == 0 ? query.x : query.y;
    const bool left_first = qcoord < static_cast<double>(node.split);
    stack.push_back(left_first ? node.right : node.left);
    stack.push_back(left_first ? node.left : node.right);
  }

  out.resize(best.size());
  for (auto it = out.rbegin(); it != out.rend(); ++it) {
    std::pop_heap(best.begin(), best.end());
    *it = best.back().index;
    best.pop_back();
  }
}

std::vector<std::size_t> KdTree::within_radius(Point query,
                                               double radius) const {
  std::vector<std::size_t> out;
  if (root_ < 0) return out;
  const double r2 = radius * radius;
  std::vector<std::int32_t> stack{root_};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (node.box.empty() || node.box.squared_distance_to(query) > r2) {
      continue;
    }
    if (node.leaf()) {
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        const std::size_t p = order_[i];
        if (!active_[p]) continue;
        if (squared_distance(points_[p], query) <= r2) out.push_back(p);
      }
      continue;
    }
    stack.push_back(node.left);
    stack.push_back(node.right);
  }
  return out;
}

void KdTree::set_active(std::size_t index, bool active) {
  CIM_ASSERT(index < active_.size());
  if (static_cast<bool>(active_[index]) == active) return;
  active_[index] = active ? 1 : 0;
  active_count_ += active ? 1 : static_cast<std::size_t>(-1);
}

}  // namespace cim::geo
