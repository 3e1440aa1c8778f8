// SHA-256 pins of the surface-LIC path: the field resampled from the
// level-5 synthetic surface and the ripple-kernel LIC image computed from
// it. Speedups of the resample or the convolution must leave every bit of
// both in place. A change meant to alter the LIC texture re-pins by copying
// the printed hashes here, deliberately, in the same commit.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <stdexcept>

#include "lic/field2d.hpp"
#include "lic/lic.hpp"
#include "quake/synthetic.hpp"
#include "util/sha256.hpp"

namespace qv::lic {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

constexpr const char* kResample256 =
    "e7165a8171b6b340ad7603d44820ab191eee1b61a5931ac5a2c33488791b4e78";
constexpr const char* kRipplePhase0 =
    "e61bf9e59579ce2d8affc54e52c1a0d5e218ad60ce010f7edb59bc14cd2cc4cf";
constexpr const char* kRipplePhase3 =
    "54ceda5766592287e090e5efe4913300f0853d400402c3105a0f66053891b57d";
constexpr const char* kRippleOddSize =
    "ca8bbcd926de95b37737f0a25fc4c97c157b5a7f77fe1b820e2eabbfb5d28656";

// The ground surface of the uniform level-5 mesh (33 x 33 = 1089 nodes)
// while the synthetic wavefront crosses it: 513 of the nodes are still at
// rest, so zero-length vectors stop streamlines early.
SurfaceField level5_surface() {
  mesh::HexMesh mesh(mesh::LinearOctree::uniform(kUnit, 5));
  quake::SyntheticQuake quake;
  return extract_surface_field(mesh, quake.sample_nodes(mesh, 0.8f));
}

template <typename T>
std::string sha(std::span<const T> v) {
  return util::Sha256::hex(v.data(), v.size_bytes());
}

std::string ripple_hash(int w, int h, float phase) {
  SurfaceField field = level5_surface();
  Quadtree tree(field.positions);
  VectorGrid grid = resample(field, tree, w, h);
  auto noise = make_noise(w, h, 0xABCD1234u);
  LicOptions opt;
  opt.periodic_kernel = true;
  opt.phase = phase;
  return sha(std::span<const float>(compute_lic(grid, noise, w, h, opt)));
}

TEST(LicPins, ResampleOfTheLevel5Surface) {
  SurfaceField field = level5_surface();
  ASSERT_EQ(field.positions.size(), 1089u);
  Quadtree tree(field.positions);
  VectorGrid grid = resample(field, tree, 256, 256);
  std::string got = sha(std::span<const Vec2>(grid.data()));
  EXPECT_EQ(got, kResample256) << "resampled field changed: " << got;
}

TEST(LicPins, RippleKernelTwoPhases) {
  std::string p0 = ripple_hash(128, 128, 0.0f);
  std::string p3 = ripple_hash(128, 128, 0.375f);
  EXPECT_NE(p0, p3);
  EXPECT_EQ(p0, kRipplePhase0) << "phase 0 LIC changed: " << p0;
  EXPECT_EQ(p3, kRipplePhase3) << "phase 3/8 LIC changed: " << p3;
}

// A size that is a multiple of nothing in particular: partial rows and
// non-square grids take the same per-pixel path.
TEST(LicPins, RippleKernelOddSize) {
  std::string got = ripple_hash(93, 61, 0.625f);
  EXPECT_EQ(got, kRippleOddSize) << "93x61 LIC changed: " << got;
}

// The input rank's entry point: one stencil, one noise texture and reused
// buffers across steps give, step after step, the same bytes as a fresh
// resample and convolution.
TEST(SurfaceLic, EveryStepMatchesAFreshResampleAndConvolution) {
  mesh::HexMesh mesh(mesh::LinearOctree::uniform(kUnit, 5));
  quake::SyntheticQuake quake;
  const auto positions =
      extract_surface_field(mesh, quake.sample_nodes(mesh, 0.0f)).positions;
  SurfaceLic lic(positions, 96, 0xABCD1234u);
  for (int step = 0; step < 3; ++step) {
    SurfaceField field =
        extract_surface_field(mesh, quake.sample_nodes(mesh, 0.8f + 0.3f * step));
    LicOptions opt;
    opt.periodic_kernel = true;
    opt.phase = float(step) / 8.0f;
    std::span<const float> got = lic.run(field.vectors, opt);

    Quadtree tree(field.positions);
    VectorGrid grid = resample(field, tree, 96, 96);
    auto want = compute_lic(grid, make_noise(96, 96, 0xABCD1234u), 96, 96, opt);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0)
        << "step " << step;
  }
}

TEST(ResampleStencil, RejectsMismatchedSizes) {
  SurfaceField field = level5_surface();
  Quadtree tree(field.positions);
  ResampleStencil stencil(field.positions, tree, 8, 8);
  VectorGrid wrong_grid(8, 9, stencil.bounds());
  EXPECT_THROW(stencil.apply(field.vectors, wrong_grid), std::runtime_error);
  VectorGrid grid(8, 8, stencil.bounds());
  EXPECT_THROW(stencil.apply(std::span<const Vec2>(field.vectors).first(5), grid),
               std::runtime_error);
  std::span<const Vec2> fewer(field.positions.data(), 10);
  EXPECT_THROW(ResampleStencil(fewer, tree, 8, 8), std::runtime_error);
}

}  // namespace
}  // namespace qv::lic
