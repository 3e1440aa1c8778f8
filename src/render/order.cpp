#include "render/order.hpp"

#include <algorithm>
#include <bit>

namespace qv::render {

namespace {

using mesh::OctKey;

// Octant of `node`'s child grid nearest the eye.
int eye_octant(const Box3& node_box, Vec3 eye) {
  Vec3 c = node_box.center();
  int oct = 0;
  if (eye.x > c.x) oct |= 1;
  if (eye.y > c.y) oct |= 2;
  if (eye.z > c.z) oct |= 4;
  return oct;
}

struct Sorter {
  std::span<const octree::Block> blocks;
  const Box3& domain;
  Vec3 eye;
  std::vector<std::size_t> out;

  // `indices`: blocks whose root is a descendant of (or equal to) `node`.
  void visit(const OctKey& node, std::vector<std::size_t>& indices) {
    if (indices.empty()) return;
    // Blocks exactly at this octant are emitted (they cannot overlap any
    // deeper sibling since blocks are disjoint).
    std::vector<std::size_t> here;
    std::vector<std::size_t> children[8];
    for (std::size_t i : indices) {
      const OctKey& k = blocks[i].root;
      if (k == node) {
        here.push_back(i);
      } else {
        OctKey child_anc = k.ancestor(node.level + 1);
        int oct = int(child_anc.x & 1u) | (int(child_anc.y & 1u) << 1) |
                  (int(child_anc.z & 1u) << 2);
        children[oct].push_back(i);
      }
    }
    for (std::size_t i : here) out.push_back(i);

    int s = eye_octant(node.box(domain), eye);
    // Visit children by Hamming distance to the eye octant: the classical
    // correct front-to-back order for octrees.
    int order_buf[8];
    int n = 0;
    for (int d = 0; d <= 3; ++d) {
      for (int c = 0; c < 8; ++c) {
        if (std::popcount(unsigned(c ^ s)) == d) order_buf[n++] = c;
      }
    }
    for (int idx = 0; idx < 8; ++idx) {
      visit(node.child(order_buf[idx]), children[order_buf[idx]]);
    }
  }
};

}  // namespace

std::vector<std::size_t> visibility_order(std::span<const octree::Block> blocks,
                                          const Box3& domain, Vec3 eye) {
  Sorter s{blocks, domain, eye, {}};
  std::vector<std::size_t> all(blocks.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  s.visit(OctKey{}, all);
  return s.out;
}

std::vector<double> view_costs(std::span<const octree::Block> blocks,
                               const Camera& camera) {
  std::vector<double> cost(blocks.size(), 0.0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const ScreenRect fp = camera.footprint(blocks[b].bounds);
    double sum = 0.0;
    for (int py = fp.y0; py < fp.y1; ++py) {
      for (int px = fp.x0; px < fp.x1; ++px) {
        const Ray ray = camera.pixel_ray(px, py);
        float t_in, t_out;
        if (!blocks[b].bounds.intersect(ray.origin, ray.inv_dir, t_in, t_out))
          continue;
        t_in = std::max(t_in, 0.0f);
        if (t_in < t_out) sum += double(t_out - t_in);
      }
    }
    cost[b] = sum;
  }
  return cost;
}

}  // namespace qv::render
