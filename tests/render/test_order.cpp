#include "render/order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "util/rng.hpp"

namespace qv::render {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

std::vector<octree::Block> blocks_of(const mesh::LinearOctree& tree, int level) {
  auto blocks = octree::decompose(tree, level);
  octree::estimate_workloads(tree, blocks, octree::WorkloadModel::kCellCount);
  return blocks;
}

TEST(VisibilityOrder, IsAPermutation) {
  auto tree = mesh::LinearOctree::uniform(kUnit, 3);
  auto blocks = blocks_of(tree, 2);
  auto order = visibility_order(blocks, kUnit, {3, -2, 5});
  ASSERT_EQ(order.size(), blocks.size());
  std::set<std::size_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), blocks.size());
}

TEST(VisibilityOrder, NearestOctantComesFirst) {
  auto tree = mesh::LinearOctree::uniform(kUnit, 1);
  auto blocks = blocks_of(tree, 1);
  ASSERT_EQ(blocks.size(), 8u);
  // Eye beyond the (1,1,1) corner: the (1,1,1) octant is nearest, the
  // (0,0,0) octant farthest.
  auto order = visibility_order(blocks, kUnit, {2, 2, 2});
  const auto& first = blocks[order.front()].root;
  const auto& last = blocks[order.back()].root;
  EXPECT_EQ(first.x, 1u);
  EXPECT_EQ(first.y, 1u);
  EXPECT_EQ(first.z, 1u);
  EXPECT_EQ(last.x, 0u);
  EXPECT_EQ(last.y, 0u);
  EXPECT_EQ(last.z, 0u);
}

// The fundamental correctness property: if block A's box occludes part of
// block B's box from the eye (a ray hits A before B), then A must come
// first. We verify by shooting random rays from the eye and checking the
// entry distances are non-decreasing in visit order.
class OrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(OrderProperty, RayEntryMonotoneAlongOrder) {
  Rng rng(std::uint64_t(GetParam()) * 991 + 5);
  // Mixed-level blocks from an adaptive tree.
  auto size = [&](Vec3 p) {
    return (p - Vec3{0.7f, 0.3f, 0.4f}).norm() < 0.3f ? 0.1f : 0.45f;
  };
  auto tree = mesh::LinearOctree::build(kUnit, size, 1, 4);
  auto blocks = blocks_of(tree, 2);
  Vec3 eye{float(rng.uniform(-2, 3)), float(rng.uniform(-2, 3)),
           float(rng.uniform(-2, 3))};
  auto order = visibility_order(blocks, kUnit, eye);
  std::vector<std::uint32_t> rank(blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    rank[order[i]] = std::uint32_t(i);

  for (int trial = 0; trial < 400; ++trial) {
    // Random ray toward the domain.
    Vec3 target{rng.next_float(), rng.next_float(), rng.next_float()};
    Vec3 dir = (target - eye).normalized();
    Vec3 inv{1 / dir.x, 1 / dir.y, 1 / dir.z};
    // Collect (t_entry, rank) over intersected blocks.
    std::vector<std::pair<float, std::uint32_t>> hits;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      float t0, t1;
      if (blocks[b].bounds.intersect(eye, inv, t0, t1) && t1 > 0) {
        hits.push_back({std::max(t0, 0.0f), rank[b]});
      }
    }
    std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
      return a.second < b.second;  // visit order
    });
    for (std::size_t i = 1; i < hits.size(); ++i) {
      // Entry distances must not decrease along the visit order (with a
      // small tolerance for shared boundaries).
      ASSERT_GE(hits[i].first, hits[i - 1].first - 1e-4f)
          << "eye " << eye << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderProperty, ::testing::Range(0, 8));

TEST(VisibilityOrder, EyeInsideDomainStillPermutes) {
  auto tree = mesh::LinearOctree::uniform(kUnit, 2);
  auto blocks = blocks_of(tree, 1);
  auto order = visibility_order(blocks, kUnit, {0.5f, 0.5f, 0.5f});
  std::set<std::size_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), blocks.size());
}

// The view cost every rank computes for the initial assignment: it must be
// the same bits on every call, with nothing shared between the calls.
TEST(ViewCost, IsDeterministic) {
  auto tree = mesh::LinearOctree::uniform(kUnit, 3);
  auto blocks = blocks_of(tree, 2);
  auto a = view_costs(blocks, Camera::overview(kUnit, 128, 96));
  auto b = view_costs(blocks, Camera::overview(kUnit, 128, 96));
  ASSERT_EQ(a.size(), blocks.size());
  ASSERT_EQ(b.size(), a.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_GT(*std::max_element(a.begin(), a.end()), 0.0);
}

TEST(ViewCost, ZeroOffScreenAndBehindTheEye) {
  Camera cam({0, 0, 0}, {1, 0, 0}, {0, 0, 1}, 20.0f, 100, 100);
  std::vector<octree::Block> blocks(3);
  blocks[0].bounds = {{3, -0.5f, -0.5f}, {4, 0.5f, 0.5f}};  // dead ahead
  blocks[1].bounds = {{3, 40, -1}, {4, 42, 1}};             // off to the side
  blocks[2].bounds = {{-5, -1, -1}, {-3, 1, 1}};            // behind the eye
  auto cost = view_costs(blocks, cam);
  EXPECT_GT(cost[0], 0.0);
  EXPECT_EQ(cost[1], 0.0);
  EXPECT_EQ(cost[2], 0.0);
}

// Only the stretch in front of the eye counts: a box around the eye costs
// what its front half costs, not its full chords.
TEST(ViewCost, CountsChordsFromTheEyeOn) {
  Camera cam({0, 0, 0}, {1, 0, 0}, {0, 0, 1}, 20.0f, 50, 50);
  std::vector<octree::Block> around(1), front(1);
  around[0].bounds = {{-1, -1, -1}, {1, 1, 1}};
  front[0].bounds = {{0, -1, -1}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(view_costs(around, cam)[0], view_costs(front, cam)[0]);
}

TEST(ViewCost, NearerBlockOfTheSameSizeCostsMore) {
  Camera cam({0, 0, 0}, {1, 0, 0}, {0, 0, 1}, 30.0f, 100, 100);
  std::vector<octree::Block> blocks(2);
  blocks[0].bounds = {{3, -0.5f, -0.5f}, {4, 0.5f, 0.5f}};
  blocks[1].bounds = {{9, -0.5f, -0.5f}, {10, 0.5f, 0.5f}};
  auto cost = view_costs(blocks, cam);
  EXPECT_GT(cost[0], 4.0 * cost[1]);
}

}  // namespace
}  // namespace qv::render
