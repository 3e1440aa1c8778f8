#include "lic/field2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qv::lic {

SurfaceField extract_surface_field(const mesh::HexMesh& mesh,
                                   std::span<const float> interleaved3) {
  SurfaceField f;
  auto surface = mesh.surface_nodes();
  auto positions = mesh.node_positions();
  f.positions.reserve(surface.size());
  f.vectors.reserve(surface.size());
  for (mesh::NodeId n : surface) {
    f.positions.push_back({positions[n].x, positions[n].y});
    f.vectors.push_back(
        {interleaved3[3 * std::size_t(n)], interleaved3[3 * std::size_t(n) + 1]});
  }
  return f;
}

ResampleStencil::ResampleStencil(std::span<const Vec2> positions,
                                 const Quadtree& tree, int width, int height)
    : w_(width), h_(height), bounds_(tree.bounds()), nodes_(positions.size()) {
  if (positions.size() != tree.size())
    throw std::runtime_error("resample: tree and positions differ in size");
  const Rect b = bounds_;
  const float dx = b.width() / float(std::max(width - 1, 1));
  const float dy = b.height() / float(std::max(height - 1, 1));
  const float base_radius = 1.5f * std::max(dx, dy);
  const std::size_t pixels = std::size_t(width) * std::size_t(height);
  first_.reserve(pixels + 1);
  wsum_.reserve(pixels);

  std::vector<std::uint32_t> hits;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      first_.push_back(std::uint32_t(taps_.size()));
      Vec2 p{b.x0 + dx * float(x), b.y0 + dy * float(y)};
      float radius = base_radius;
      tree.query_radius(p, radius, hits);
      for (int grow = 0; hits.empty() && grow < 8; ++grow) {
        radius *= 2.0f;
        tree.query_radius(p, radius, hits);
      }
      if (hits.empty()) {
        taps_.push_back({tree.nearest(p), 1.0f});
        wsum_.push_back(0.0f);
        continue;
      }
      float wsum = 0.0f;
      for (std::uint32_t i : hits) {
        Vec2 d = positions[i] - p;
        float w = 1.0f / (d.dot(d) + 1e-12f);
        taps_.push_back({i, w});
        wsum += w;
      }
      wsum_.push_back(wsum);
    }
  }
  first_.push_back(std::uint32_t(taps_.size()));
  taps_.shrink_to_fit();
}

void ResampleStencil::apply(std::span<const Vec2> vectors,
                            VectorGrid& out) const {
  if (out.width() != w_ || out.height() != h_ || vectors.size() != nodes_)
    throw std::runtime_error("resample: size mismatch");
  Vec2* px = out.data().data();
  const std::size_t pixels = wsum_.size();
  for (std::size_t p = 0; p < pixels; ++p) {
    const Tap* t = taps_.data() + first_[p];
    const Tap* end = taps_.data() + first_[p + 1];
    if (wsum_[p] == 0.0f) {
      px[p] = vectors[t->node];
      continue;
    }
    Vec2 acc{};
    for (; t != end; ++t) acc += vectors[t->node] * t->weight;
    px[p] = acc / wsum_[p];
  }
}

VectorGrid resample(const SurfaceField& field, const Quadtree& tree, int width,
                    int height) {
  ResampleStencil stencil(field.positions, tree, width, height);
  VectorGrid grid(width, height, stencil.bounds());
  stencil.apply(field.vectors, grid);
  return grid;
}

}  // namespace qv::lic
