// Surface vector-field extraction and resampling (§4.3): the 2D velocity
// field at the irregular ground-surface nodes is extracted from the raw 3D
// vectors and resampled onto a regular grid (via the quadtree) whose
// resolution follows the image size / adaptive level.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "lic/quadtree.hpp"
#include "mesh/hex_mesh.hpp"

namespace qv::lic {

// Regular-grid 2D vector field.
class VectorGrid {
 public:
  VectorGrid() = default;
  VectorGrid(int w, int h, Rect bounds)
      : w_(w), h_(h), bounds_(bounds), v_(std::size_t(w) * std::size_t(h)) {}

  int width() const { return w_; }
  int height() const { return h_; }
  const Rect& bounds() const { return bounds_; }

  Vec2& at(int x, int y) { return v_[std::size_t(y) * w_ + x]; }
  Vec2 at(int x, int y) const { return v_[std::size_t(y) * w_ + x]; }

  // Bilinear sample at grid coordinates (gx, gy) in [0, w) x [0, h).
  // Inline: the LIC streamline integrator calls it twice per RK2 step.
  Vec2 sample_grid(float gx, float gy) const {
    gx = std::clamp(gx, 0.0f, float(w_ - 1));
    gy = std::clamp(gy, 0.0f, float(h_ - 1));
    int x0 = std::min(int(gx), w_ - 2);
    int y0 = std::min(int(gy), h_ - 2);
    if (w_ == 1) x0 = 0;
    if (h_ == 1) y0 = 0;
    float fx = gx - float(x0);
    float fy = gy - float(y0);
    Vec2 a = at(x0, y0);
    Vec2 b = at(std::min(x0 + 1, w_ - 1), y0);
    Vec2 c = at(x0, std::min(y0 + 1, h_ - 1));
    Vec2 d = at(std::min(x0 + 1, w_ - 1), std::min(y0 + 1, h_ - 1));
    Vec2 top = a * (1.0f - fx) + b * fx;
    Vec2 bot = c * (1.0f - fx) + d * fx;
    return top * (1.0f - fy) + bot * fy;
  }

  std::span<const Vec2> data() const { return v_; }
  std::span<Vec2> data() { return v_; }

 private:
  int w_ = 0, h_ = 0;
  Rect bounds_;
  std::vector<Vec2> v_;
};

// The scattered surface field of one time step.
struct SurfaceField {
  std::vector<Vec2> positions;  // (x, y) of surface nodes
  std::vector<Vec2> vectors;    // (vx, vy) at those nodes
};

// Extract (x, y, vx, vy) at the mesh's top-surface nodes from interleaved
// 3-component node data.
SurfaceField extract_surface_field(const mesh::HexMesh& mesh,
                                   std::span<const float> interleaved3);

// The inverse-distance resample of a fixed point set onto a fixed grid,
// built once: the surface nodes never move, only their vectors change from
// step to step. For every pixel the stencil keeps the neighbours the
// quadtree found within an adaptive radius (grown until samples are found),
// in query order, with their weights; a pixel with no neighbour keeps its
// nearest node instead. apply() replays each pixel's weighted sum in that
// order, so its output is bit-identical to a fresh query per pixel.
class ResampleStencil {
 public:
  // `positions` are the points `tree` was built over, in the same order.
  ResampleStencil(std::span<const Vec2> positions, const Quadtree& tree,
                  int width, int height);

  const Rect& bounds() const { return bounds_; }

  // Resample `vectors` (one per position) into `out` (width x height).
  void apply(std::span<const Vec2> vectors, VectorGrid& out) const;

 private:
  struct Tap {
    std::uint32_t node;
    float weight;
  };
  int w_ = 0, h_ = 0;
  Rect bounds_;
  std::size_t nodes_ = 0;
  std::vector<std::uint32_t> first_;  // pixel p's taps: [first_[p], first_[p+1])
  std::vector<Tap> taps_;
  std::vector<float> wsum_;           // per pixel; 0 marks a nearest-node copy
};

// Resample a scattered field to a regular grid: build the stencil over the
// field's positions and apply it once.
VectorGrid resample(const SurfaceField& field, const Quadtree& tree, int width,
                    int height);

}  // namespace qv::lic
