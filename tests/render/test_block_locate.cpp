// Locate-equivalence wall: RenderBlock::locate searches only its block's
// cell range, and must answer exactly as the global mesh locate filtered to
// that range — same found flag, same cell, bitwise-equal u/v/w — on
// adaptive and uniform octrees, at several block levels, with and without
// a cell hint, for random points and for the points where a search is most
// fragile: cell faces, edges and corners, and one float step outside the
// block or the domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "io/block_index.hpp"
#include "render/block_data.hpp"
#include "util/rng.hpp"

namespace qv::render {
namespace {

using CellSample = mesh::HexMesh::CellSample;

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};
const Box3 kSkewed{{-1.5f, 0.25f, 2.0f}, {3.5f, 2.25f, 4.5f}};

bool bits_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// The pre-block-local contract: the hint fast path, else the global mesh
// locate, accepted only when the cell lies in the block's range.
bool reference_locate(const mesh::HexMesh& mesh, const octree::Block& b,
                      Vec3 p, CellSample& cs, std::size_t* hint) {
  if (hint && *hint >= b.cell_begin && *hint < b.cell_end) {
    Box3 box = mesh.cell_box(*hint);
    if (box.contains(p)) {
      cs.cell = *hint;
      Vec3 ext = box.extent();
      cs.u = (p.x - box.lo.x) / ext.x;
      cs.v = (p.y - box.lo.y) / ext.y;
      cs.w = (p.z - box.lo.z) / ext.z;
      return true;
    }
  }
  if (!mesh.locate(p, cs)) return false;
  if (cs.cell < b.cell_begin || cs.cell >= b.cell_end) return false;
  if (hint) *hint = cs.cell;
  return true;
}

struct Wall {
  mesh::HexMesh mesh;
  std::vector<octree::Block> blocks;
  io::BlockNodeIndex index;
  std::vector<RenderBlock> rblocks;

  Wall(mesh::LinearOctree tree, std::vector<octree::Block> bl)
      : mesh(std::move(tree)), blocks(std::move(bl)), index(mesh, blocks) {
    for (std::size_t b = 0; b < blocks.size(); ++b)
      rblocks.emplace_back(mesh, blocks[b], index.block_nodes(b));
  }

  // Compares one point against one block, hint-less and with `hint`.
  // Returns whether the block claimed the point.
  bool check(std::size_t b, Vec3 p, std::size_t hint) {
    CellSample got, want;
    bool f_got = rblocks[b].locate(p, got);
    bool f_want = reference_locate(mesh, blocks[b], p, want, nullptr);
    EXPECT_EQ(f_got, f_want) << "block " << b << " p " << p;
    if (f_got && f_want) expect_same(got, want, b, p);

    std::size_t h_got = hint, h_want = hint;
    std::uint64_t searches = 0;
    f_got = rblocks[b].locate(p, got, &h_got, &searches);
    f_want = reference_locate(mesh, blocks[b], p, want, &h_want);
    EXPECT_EQ(f_got, f_want) << "block " << b << " p " << p << " hint " << hint;
    EXPECT_EQ(h_got, h_want) << "block " << b << " p " << p;
    if (f_got && f_want) expect_same(got, want, b, p);
    // A search runs exactly when the hint cannot answer.
    bool hint_hit = hint >= blocks[b].cell_begin && hint < blocks[b].cell_end &&
                    mesh.cell_box(hint).contains(p);
    EXPECT_EQ(searches, hint_hit ? 0u : 1u) << "block " << b << " p " << p;
    return f_want;
  }

  void expect_same(const CellSample& a, const CellSample& b, std::size_t blk,
                   Vec3 p) {
    EXPECT_EQ(a.cell, b.cell) << "block " << blk << " p " << p;
    EXPECT_TRUE(bits_equal(a.u, b.u) && bits_equal(a.v, b.v) &&
                bits_equal(a.w, b.w))
        << "block " << blk << " p " << p << " got (" << a.u << "," << a.v
        << "," << a.w << ") want (" << b.u << "," << b.v << "," << b.w << ")";
  }

  // Checks every point against the blocks around it and a few far away;
  // each point inside the domain must be claimed by at least one block.
  void run(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Vec3> pts;
    const Box3& dom = mesh.domain();
    Vec3 ext = dom.extent();
    for (int i = 0; i < 300; ++i)
      pts.push_back(dom.lo + Vec3{ext.x * rng.next_float(),
                                  ext.y * rng.next_float(),
                                  ext.z * rng.next_float()});
    // Corners, edge midpoints and face centers of a sample of cells.
    const std::size_t stride = std::max<std::size_t>(1, mesh.cell_count() / 40);
    for (std::size_t c = 0; c < mesh.cell_count(); c += stride) {
      Box3 box = mesh.cell_box(c);
      Vec3 m = box.center();
      for (int i = 0; i < 27; ++i) {
        int a = i % 3, bb = (i / 3) % 3, cc = i / 9;
        auto pick = [](int s, float lo, float mid, float hi) {
          return s == 0 ? lo : (s == 1 ? mid : hi);
        };
        pts.push_back({pick(a, box.lo.x, m.x, box.hi.x),
                       pick(bb, box.lo.y, m.y, box.hi.y),
                       pick(cc, box.lo.z, m.z, box.hi.z)});
      }
    }
    // One float step outside (and inside) block faces, and outside the
    // domain.
    const std::size_t bstride = std::max<std::size_t>(1, blocks.size() / 24);
    for (std::size_t bi = 0; bi < blocks.size(); bi += bstride) {
      const Box3& bb = blocks[bi].bounds;
      Vec3 c = bb.center();
      for (int axis = 0; axis < 3; ++axis) {
        for (float face : {bb.lo[axis], bb.hi[axis]}) {
          for (float dir : {-1e30f, 1e30f})
            pts.push_back(with_axis(c, axis, std::nextafter(face, dir)));
        }
      }
      pts.push_back({std::nextafter(bb.lo.x, -1e30f), bb.lo.y, bb.lo.z});
      pts.push_back({bb.hi.x, std::nextafter(bb.hi.y, 1e30f), bb.hi.z});
    }
    for (int axis = 0; axis < 3; ++axis) {
      pts.push_back(with_axis(dom.center(), axis,
                              std::nextafter(dom.lo[axis], -1e30f)));
      pts.push_back(with_axis(dom.center(), axis,
                              std::nextafter(dom.hi[axis], 1e30f)));
    }
    pts.push_back(dom.hi);
    pts.push_back(dom.lo);

    for (Vec3 p : pts) {
      expect_anchor_search_matches_key_search(p);
      // Every block whose (slightly inflated) bounds hold p, plus a few
      // random far-away ones that must all reject it.
      int claims = 0;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (!near(blocks[b].bounds, p) && rng.next_below(blocks.size()) >= 3)
          continue;
        // Hints: none, a random cell of this block, and a random cell of
        // the mesh (usually another block's).
        std::size_t own =
            blocks[b].cell_begin + rng.next_below(blocks[b].cell_count());
        std::size_t foreign = rng.next_below(mesh.cell_count());
        bool claimed = check(b, p, std::size_t(-1));
        check(b, p, own);
        check(b, p, foreign);
        claims += claimed ? 1 : 0;
      }
      if (dom.contains(p)) {
        EXPECT_GE(claims, 1) << "p " << p;
      } else {
        EXPECT_EQ(claims, 0) << "p " << p;
      }
    }
  }

  static Vec3 with_axis(Vec3 p, int axis, float v) {
    (axis == 0 ? p.x : (axis == 1 ? p.y : p.z)) = v;
    return p;
  }

  static bool near(const Box3& b, Vec3 p) {
    Vec3 pad = b.extent() * 1e-4f;
    return Box3{b.lo - pad, b.hi + pad}.contains(p);
  }

  // The search the anchors replaced: upper_bound over the OctKeys
  // themselves, on the same kMaxLevel quantization of p.
  void expect_anchor_search_matches_key_search(Vec3 p) {
    const auto& tree = mesh.octree();
    std::ptrdiff_t want = -1;
    const Box3& dom = tree.domain();
    if (dom.contains(p)) {
      Vec3 rel = p - dom.lo;
      Vec3 ext = dom.extent();
      auto grid = [](float v, float e) {
        auto g = std::int64_t(double(v) / double(e) *
                              double(1u << mesh::kMaxLevel));
        return std::uint32_t(std::clamp<std::int64_t>(
            g, 0, (1u << mesh::kMaxLevel) - 1));
      };
      mesh::OctKey q{grid(rel.x, ext.x), grid(rel.y, ext.y),
                     grid(rel.z, ext.z), std::uint8_t(mesh::kMaxLevel)};
      auto leaves = tree.leaves();
      auto it = std::upper_bound(leaves.begin(), leaves.end(), q);
      if (it != leaves.begin()) {
        --it;
        if (*it == q || it->is_ancestor_of(q)) want = it - leaves.begin();
      }
      EXPECT_EQ(tree.find_leaf(q), want) << "p " << p;
    }
    EXPECT_EQ(tree.find_leaf(p), want) << "p " << p;
  }
};

// Finer cells toward the top surface, plus a point source at the center of
// a level-1 octant: only that octant's center probe sees it, so refinement
// puts fine cells against coarse neighbours and the 2:1 balance pass has to
// split leaves.
mesh::LinearOctree adaptive_tree(const Box3& domain) {
  Vec3 ext = domain.extent();
  Vec3 spot = domain.lo + Vec3{ext.x * 0.25f, ext.y * 0.75f, ext.z * 0.25f};
  auto size = [=](Vec3 p) {
    float depth = (domain.hi.z - p.z) / ext.z;
    float d = (p - spot).norm() / ext.x;
    return ext.x * (d < 0.01f ? 0.02f : std::min(0.1f + 1.6f * depth, 1.0f));
  };
  return mesh::LinearOctree::build(domain, size, 1, 5);
}

TEST(BlockLocateWall, AdaptiveTreeMatchesGlobalLocate) {
  for (const Box3& domain : {kUnit, kSkewed}) {
    auto tree = adaptive_tree(domain);
    ASSERT_TRUE(tree.is_balanced());
    ASSERT_LT(tree.min_leaf_level(), 3);  // single-leaf blocks at level 3
    ASSERT_GE(tree.max_leaf_level(), 4);
    for (int block_level : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "domain " << domain.lo << ".."
                                        << domain.hi << " block level "
                                        << block_level);
      Wall wall(tree, octree::decompose(tree, block_level));
      wall.run(std::uint64_t(block_level) * 17 + 1);
    }
  }
}

TEST(BlockLocateWall, UniformTreeMatchesGlobalLocate) {
  for (const Box3& domain : {kUnit, kSkewed}) {
    auto tree = mesh::LinearOctree::uniform(domain, 4);
    for (int block_level : {0, 1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "domain " << domain.lo << ".."
                                        << domain.hi << " block level "
                                        << block_level);
      Wall wall(tree, octree::decompose(tree, block_level));
      wall.run(std::uint64_t(block_level) * 31 + 5);
    }
  }
}

// A block rooted deeper than the leaf that contains it: subtree_range
// hands it that single shallower leaf, whose box reaches past the block's
// bounds. Block-local and global locate must still agree everywhere.
TEST(BlockLocateWall, BlockRootInsideShallowerLeaf) {
  auto tree = adaptive_tree(kUnit);
  std::vector<octree::Block> blocks;
  auto leaves = tree.leaves();
  for (std::size_t i = 0; i < leaves.size() && blocks.size() < 4; ++i) {
    if (leaves[i].level >= 3) continue;
    // Two roots one and two levels below the leaf, in different octants.
    for (int extra : {1, 2}) {
      mesh::OctKey root = leaves[i];
      for (int k = 0; k < extra; ++k) root = root.child(extra == 1 ? 7 : 2);
      auto [lo, hi] = tree.subtree_range(root);
      ASSERT_EQ(lo, i);
      ASSERT_EQ(hi, i + 1);
      octree::Block b;
      b.root = root;
      b.cell_begin = lo;
      b.cell_end = hi;
      b.bounds = root.box(tree.domain());
      blocks.push_back(b);
    }
  }
  ASSERT_FALSE(blocks.empty());
  // Neighbouring ordinary blocks so foreign hints and out-of-block points
  // have somewhere to land.
  for (const auto& b : octree::decompose(tree, 2)) blocks.push_back(b);
  Wall wall(tree, blocks);
  wall.run(99);
}

}  // namespace
}  // namespace qv::render
