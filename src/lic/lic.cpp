#include "lic/lic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qv::lic {

std::vector<float> make_noise(int width, int height, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> noise(std::size_t(width) * std::size_t(height));
  for (auto& v : noise) v = rng.next_float();
  return noise;
}

namespace {

float noise_at(std::span<const float> noise, int w, int h, float gx, float gy) {
  int x = std::clamp(int(gx + 0.5f), 0, w - 1);
  int y = std::clamp(int(gy + 0.5f), 0, h - 1);
  return noise[std::size_t(y) * std::size_t(w) + std::size_t(x)];
}

// RK2 (midpoint) streamline step through the grid; dir = +1 / -1.
bool advance(const VectorGrid& field, float& gx, float& gy, float step,
             float dir) {
  Vec2 v1 = field.sample_grid(gx, gy);
  float n1 = v1.norm();
  if (n1 < 1e-12f) return false;
  Vec2 d1 = v1 / n1;
  float mx = gx + dir * 0.5f * step * d1.x;
  float my = gy + dir * 0.5f * step * d1.y;
  Vec2 v2 = field.sample_grid(mx, my);
  float n2 = v2.norm();
  if (n2 < 1e-12f) return false;
  Vec2 d2 = v2 / n2;
  gx += dir * step * d2.x;
  gy += dir * step * d2.y;
  return true;
}

// Pixels of one row whose streamlines advance in lockstep. Eight
// independent dependency chains (sample, normalize, step) keep the core
// busy while any one of them waits on a divide or a load.
constexpr int kLanes = 8;

}  // namespace

void compute_lic(const VectorGrid& field, std::span<const float> noise,
                 int width, int height, const LicOptions& options,
                 std::span<float> out) {
  const std::size_t pixels = std::size_t(width) * std::size_t(height);
  if (noise.size() != pixels)
    throw std::runtime_error("lic: noise size mismatch");
  if (field.width() != width || field.height() != height)
    throw std::runtime_error("lic: field size mismatch");
  if (out.size() != pixels) throw std::runtime_error("lic: output size mismatch");
  const int L = options.kernel_half_length;
  if (L < 0) throw std::runtime_error("lic: negative kernel length");

  // Precompute magnitude normalization if requested.
  float max_mag = 0.0f;
  if (options.magnitude_modulation) {
    for (Vec2 v : field.data()) max_mag = std::max(max_mag, v.norm());
    if (max_mag <= 0.0f) max_mag = 1.0f;
  }

  // The kernel weight of sample k in [-L, L] lives at kernel[L + k].
  std::vector<float> kernel(std::size_t(2 * L + 1), 1.0f);
  if (options.periodic_kernel) {
    // Ripple kernel: a raised cosine whose phase advances per frame,
    // giving the impression of flow direction when animated.
    for (int k = -L; k <= L; ++k) {
      float t = (float(k + L) / float(2 * L)) + options.phase;
      kernel[std::size_t(L + k)] =
          0.5f + 0.5f * std::cos(2.0f * float(M_PI) * (t - std::floor(t)));
    }
  }

  float acc[kLanes], wsum[kLanes], gx[kLanes], gy[kLanes];
  bool live[kLanes];
  for (int y = 0; y < height; ++y) {
    for (int x0 = 0; x0 < width; x0 += kLanes) {
      const int n = std::min(kLanes, width - x0);
      for (int j = 0; j < n; ++j) {
        acc[j] = noise_at(noise, width, height, float(x0 + j), float(y)) *
                 kernel[std::size_t(L)];
        wsum[j] = kernel[std::size_t(L)];
      }
      // Forward (+1) then backward (-1) from the pixel centre.
      for (int sign : {+1, -1}) {
        const float dir = float(sign);
        int alive = n;
        for (int j = 0; j < n; ++j) {
          gx[j] = float(x0 + j);
          gy[j] = float(y);
          live[j] = true;
        }
        for (int k = 1; k <= L && alive > 0; ++k) {
          const float w = kernel[std::size_t(L + sign * k)];
          for (int j = 0; j < n; ++j) {
            if (!live[j]) continue;
            if (!advance(field, gx[j], gy[j], options.step, dir)) {
              live[j] = false;
              --alive;
              continue;
            }
            acc[j] += noise_at(noise, width, height, gx[j], gy[j]) * w;
            wsum[j] += w;
          }
        }
      }
      for (int j = 0; j < n; ++j) {
        const int x = x0 + j;
        float v = wsum[j] > 0.0f ? acc[j] / wsum[j] : 0.0f;
        if (options.magnitude_modulation) {
          float mag = field.at(x, y).norm() / max_mag;
          v *= 0.35f + 0.65f * std::sqrt(mag);
        }
        out[std::size_t(y) * std::size_t(width) + std::size_t(x)] = v;
      }
    }
  }
}

std::vector<float> compute_lic(const VectorGrid& field,
                               std::span<const float> noise, int width,
                               int height, const LicOptions& options) {
  std::vector<float> out(std::size_t(width) * std::size_t(height));
  compute_lic(field, noise, width, height, options, out);
  return out;
}

namespace {

ResampleStencil surface_stencil(std::span<const Vec2> positions,
                                int resolution) {
  Quadtree tree(positions);
  return ResampleStencil(positions, tree, resolution, resolution);
}

}  // namespace

SurfaceLic::SurfaceLic(std::span<const Vec2> positions, int resolution,
                       std::uint64_t noise_seed)
    : stencil_(surface_stencil(positions, resolution)),
      noise_(make_noise(resolution, resolution, noise_seed)),
      grid_(resolution, resolution, stencil_.bounds()),
      gray_(noise_.size()) {}

std::span<const float> SurfaceLic::run(std::span<const Vec2> vectors,
                                       const LicOptions& options) {
  stencil_.apply(vectors, grid_);
  compute_lic(grid_, noise_, grid_.width(), grid_.height(), options, gray_);
  return gray_;
}

std::vector<float> advect_lic_frame(const VectorGrid& field,
                                    std::span<const float> prev,
                                    std::span<const float> noise, int width,
                                    int height, float step_cells,
                                    float injection) {
  if (prev.size() != std::size_t(width) * std::size_t(height) ||
      noise.size() != prev.size())
    throw std::runtime_error("lic: advect frame size mismatch");
  if (field.width() != width || field.height() != height)
    throw std::runtime_error("lic: field size mismatch");

  auto bilinear = [&](std::span<const float> im, float gx, float gy) {
    gx = std::clamp(gx, 0.0f, float(width - 1));
    gy = std::clamp(gy, 0.0f, float(height - 1));
    int x0 = std::min(int(gx), width - 2);
    int y0 = std::min(int(gy), height - 2);
    if (width == 1) x0 = 0;
    if (height == 1) y0 = 0;
    float fx = gx - float(x0);
    float fy = gy - float(y0);
    auto at = [&](int x, int y) {
      return im[std::size_t(y) * std::size_t(width) + std::size_t(x)];
    };
    return at(x0, y0) * (1 - fx) * (1 - fy) +
           at(std::min(x0 + 1, width - 1), y0) * fx * (1 - fy) +
           at(x0, std::min(y0 + 1, height - 1)) * (1 - fx) * fy +
           at(std::min(x0 + 1, width - 1), std::min(y0 + 1, height - 1)) * fx *
               fy;
  };

  std::vector<float> out(prev.size());
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      // Semi-Lagrangian: the pattern at (x, y) came from upstream.
      Vec2 v = field.at(x, y);
      float n = v.norm();
      Vec2 d = n > 1e-12f ? v / n : Vec2{};
      float sx = float(x) - step_cells * d.x;
      float sy = float(y) - step_cells * d.y;
      float warped = bilinear(prev, sx, sy);
      float fresh = noise[std::size_t(y) * std::size_t(width) + std::size_t(x)];
      out[std::size_t(y) * std::size_t(width) + std::size_t(x)] =
          (1.0f - injection) * warped + injection * fresh;
    }
  }
  return out;
}

}  // namespace qv::lic
