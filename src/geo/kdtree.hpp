// Static 2-D kd-tree over a point set. Used for k-nearest-neighbour
// candidate lists (2-opt / Or-opt) and for the spatial clustering passes.
// The tree is built once over an immutable point array; queries support
// soft-deletion via an "active" mask so greedy matching algorithms can
// remove points as they are consumed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/point.hpp"

namespace cim::geo {

class KdTree {
 public:
  /// Builds a balanced tree over `points` (copied). O(n log n).
  explicit KdTree(std::span<const Point> points);

  std::size_t size() const { return points_.size(); }

  /// Index of the nearest active point to `query`, excluding `exclude`
  /// (pass npos to exclude nothing). Returns npos if no active point exists.
  std::size_t nearest(Point query, std::size_t exclude = npos) const;

  /// Indices of the k nearest active points to `query` (ascending distance),
  /// excluding `exclude`.
  std::vector<std::size_t> nearest_k(Point query, std::size_t k,
                                     std::size_t exclude = npos) const;

  /// The same query, written into the caller-owned `out` (resized to the
  /// result count). A loop that reuses one `out` per thread makes no heap
  /// allocation per query once the buffer has grown to k.
  void nearest_k(Point query, std::size_t k, std::vector<std::size_t>& out,
                 std::size_t exclude = npos) const;

  /// All active points within `radius` of `query`.
  std::vector<std::size_t> within_radius(Point query, double radius) const;

  /// Soft-deletes / restores a point for subsequent queries.
  void set_active(std::size_t index, bool active);
  bool is_active(std::size_t index) const { return active_[index]; }
  std::size_t active_count() const { return active_count_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  struct Node {
    // Leaf nodes hold [begin, end) into order_; internal nodes split.
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    float split = 0.0F;
    std::uint8_t axis = 0;
    BoundingBox box;
    bool leaf() const { return left < 0; }
  };

  std::int32_t build(std::uint32_t begin, std::uint32_t end);

  std::vector<Point> points_;
  std::vector<std::uint32_t> order_;  // permutation into points_, by leaf
  std::vector<Node> nodes_;
  std::vector<char> active_;
  std::size_t active_count_ = 0;
  std::int32_t root_ = -1;

  static constexpr std::uint32_t kLeafSize = 16;
};

}  // namespace cim::geo
