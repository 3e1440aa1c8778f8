// Line Integral Convolution (Cabral & Leedom '93), the texture-based vector
// field visualization the paper overlays on the ground surface (§4.3).
// Streamlines are traced forward and backward with RK2 through the regular
// vector grid and a noise texture is convolved along them. A periodic
// filter phase animates flow direction across frames.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lic/field2d.hpp"
#include "util/rng.hpp"

namespace qv::lic {

struct LicOptions {
  int kernel_half_length = 16;  // convolution samples each direction
  float step = 0.6f;            // integration step, in grid cells
  float phase = 0.0f;           // periodic kernel phase in [0,1) (animation)
  bool periodic_kernel = false; // ripple kernel for animation frames
  // Modulate output intensity by normalized vector magnitude so strong
  // motion reads brighter (common practice for flow over scalar context).
  bool magnitude_modulation = true;
};

// White-noise input texture, values in [0,1].
std::vector<float> make_noise(int width, int height, std::uint64_t seed);

// Compute the LIC gray image (width*height floats in [0,1]) into `out`.
// Streamlines of neighbouring pixels advance in lockstep so that their
// independent RK2 chains overlap; every pixel keeps its own op sequence,
// so the image does not depend on the batching.
void compute_lic(const VectorGrid& field, std::span<const float> noise,
                 int width, int height, const LicOptions& options,
                 std::span<float> out);
std::vector<float> compute_lic(const VectorGrid& field,
                               std::span<const float> noise, int width,
                               int height, const LicOptions& options);

// The input rank's per-step surface LIC (§4.3) at `resolution`^2. Every
// static part is built once: the resample stencil over the ground nodes
// (the quadtree is dropped once the stencil exists), the noise texture,
// and the grid and image buffers reused from step to step.
class SurfaceLic {
 public:
  SurfaceLic(std::span<const Vec2> positions, int resolution,
             std::uint64_t noise_seed);

  // Resample `vectors` (one per position) and convolve. The image stays
  // valid until the next call.
  std::span<const float> run(std::span<const Vec2> vectors,
                             const LicOptions& options);

 private:
  ResampleStencil stencil_;
  std::vector<float> noise_;
  VectorGrid grid_;
  std::vector<float> gray_;
};

// One frame of a time-coherent LIC animation (the IBFV / Lagrangian-
// Eulerian advection family the paper cites for time-dependent fields,
// §2.5): semi-Lagrangian back-advection of the previous frame along the
// flow blended with `injection` of fresh noise. Successive frames move
// WITH the flow instead of re-randomizing, so animations read as motion.
//   prev       previous frame (or the initial noise for frame 0)
//   step_cells how far the pattern travels per frame, in grid cells
//   injection  fresh-noise blend weight in [0, 1]
std::vector<float> advect_lic_frame(const VectorGrid& field,
                                    std::span<const float> prev,
                                    std::span<const float> noise, int width,
                                    int height, float step_cells,
                                    float injection);

}  // namespace qv::lic
