// The parallel-rendering contract: for ANY thread count, tile size, and
// stealing schedule, the threaded frame is byte-for-byte identical to the
// serial reference, and empty-space skipping never changes a pixel. ~20
// seeded random (camera, transfer function, block set, thread count)
// combinations; the seed of any failing combination is printed so it can be
// replayed. QV_FUZZ_SEED varies the whole family (CI runs two seeds).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#include "io/block_index.hpp"
#include "quake/synthetic.hpp"
#include "render/raycast.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qv::render {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

std::uint64_t base_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1;
}

struct Scene {
  mesh::HexMesh mesh;
  std::vector<octree::Block> blocks;
  io::BlockNodeIndex index;
  std::vector<RenderBlock> rblocks;

  Scene(int level, int block_level)
      : mesh(mesh::LinearOctree::uniform(kUnit, level)),
        blocks(octree::decompose(mesh.octree(), block_level)),
        index(mesh, blocks) {
    for (std::size_t b = 0; b < blocks.size(); ++b)
      rblocks.emplace_back(mesh, blocks[b], index.block_nodes(b));
  }

  void fill(const std::function<float(Vec3)>& f) {
    auto positions = mesh.node_positions();
    std::vector<float> values(mesh.node_count());
    for (std::size_t n = 0; n < values.size(); ++n)
      values[n] = f(positions[n]);
    for (std::size_t b = 0; b < rblocks.size(); ++b) {
      std::vector<float> local;
      for (auto n : index.block_nodes(b)) local.push_back(values[n]);
      rblocks[b].set_values(std::move(local));
    }
  }
};

// A randomized scene: mesh resolution, block decomposition, camera orbit,
// transfer function, value field (with deliberate all-zero quiet regions so
// macrocell skipping fires), lighting, and image size all drawn from `rng`.
struct RandomCase {
  int level;
  int block_level;
  Camera camera;
  TransferFunction tf;
  RenderOptions opt;
  int tile;

  static RandomCase make(Rng& rng) {
    int level = 2 + int(rng.next_below(2));              // 2..3
    int block_level = int(rng.next_below(std::uint64_t(level) + 1));
    int width = 40 + int(rng.next_below(4)) * 8;         // 40..64
    int height = 32 + int(rng.next_below(3)) * 8;        // 32..48

    // Camera on a sphere around the cube; elevation capped away from the
    // up axis so the view matrix stays well-conditioned.
    float radius = 1.6f + rng.next_float() * 1.4f;
    float azim = rng.next_float() * 6.2831853f;
    float elev = (rng.next_float() - 0.5f) * 2.0f;  // +-1 rad
    Vec3 center = kUnit.center();
    Vec3 eye = center + Vec3{radius * std::cos(elev) * std::cos(azim),
                             radius * std::sin(elev),
                             radius * std::cos(elev) * std::sin(azim)};
    Camera cam(eye, center, {0, 1, 0}, 30.0f + rng.next_float() * 30.0f,
               width, height);

    // Random piecewise-linear transfer function with a transparent toe so
    // part of the value range is provably empty.
    std::vector<TransferFunction::ControlPoint> pts;
    float toe = 0.1f + rng.next_float() * 0.3f;
    pts.push_back({0.0f, {0.1f, 0.1f, 0.4f}, 0.0f});
    pts.push_back({toe, {0.2f, 0.5f, 0.6f}, 0.0f});
    int extra = 2 + int(rng.next_below(3));
    for (int i = 0; i < extra; ++i) {
      pts.push_back({toe + (1.0f - toe) * rng.next_float(),
                     {rng.next_float(), rng.next_float(), rng.next_float()},
                     rng.next_float() * 0.8f});
    }
    pts.push_back({1.0f, {0.9f, 0.2f, 0.1f}, 0.3f + rng.next_float() * 0.6f});
    TransferFunction tf(pts);

    RenderOptions opt;
    opt.step_scale = 0.35f + rng.next_float() * 0.4f;
    opt.lighting = rng.next_below(2) == 0;
    opt.value_hi = 1.5f + rng.next_float() * 2.0f;
    int tile = 5 + int(rng.next_below(40));  // deliberately odd sizes too

    return RandomCase{level, block_level, cam, tf, opt, tile};
  }
};

void fill_random_field(Scene& scene, Rng& rng) {
  quake::SyntheticQuake q;
  float tsnap = 0.5f + rng.next_float() * 1.5f;
  float quiet_z = rng.next_float();  // below this z the ground is silent
  scene.fill([&](Vec3 p) {
    if (p.z < quiet_z) return 0.0f;
    return q.velocity_at(p, tsnap).norm();
  });
}

bool images_identical(const img::Image& a, const img::Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  auto pa = a.pixels();
  auto pb = b.pixels();
  return std::memcmp(pa.data(), pb.data(), pa.size_bytes()) == 0;
}

void expect_stats_eq(const RenderStats& a, const RenderStats& b) {
  EXPECT_EQ(a.rays, b.rays);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.shaded_samples, b.shaded_samples);
  EXPECT_EQ(a.skipped_samples, b.skipped_samples);
  EXPECT_EQ(a.macro_skips, b.macro_skips);
  EXPECT_EQ(a.locate_misses, b.locate_misses);
}

// 5 random scenes x thread counts {1,2,4,7} = 20 seeded combinations.
TEST(RenderDeterminism, ThreadedFrameMatchesSerialByteForByte) {
  const std::uint64_t base = base_seed();
  for (int combo = 0; combo < 5; ++combo) {
    std::uint64_t state = base * 1000003u + std::uint64_t(combo);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "combo " << combo << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng rng(seed);
    RandomCase rc = RandomCase::make(rng);
    Scene scene(rc.level, rc.block_level);
    fill_random_field(scene, rng);

    RenderStats serial_stats;
    img::Image serial =
        render_frame(rc.camera, rc.tf, rc.opt, scene.rblocks, scene.blocks,
                     kUnit, &serial_stats);

    for (int threads : {1, 2, 4, 7}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads);
      util::ThreadPool pool(threads);
      RenderStats stats;
      img::Image threaded =
          render_frame(rc.camera, rc.tf, rc.opt, scene.rblocks, scene.blocks,
                       kUnit, &stats, &pool, rc.tile);
      EXPECT_TRUE(images_identical(serial, threaded));
      expect_stats_eq(serial_stats, stats);
    }
  }
}

// Empty-space skipping must be invisible in the image (it only jumps
// samples that are provably transparent) while actually firing.
TEST(RenderDeterminism, EmptySpaceSkippingIsBitExact) {
  const std::uint64_t base = base_seed();
  std::uint64_t total_skipped = 0;
  for (int combo = 0; combo < 6; ++combo) {
    std::uint64_t state = base * 7777777u + std::uint64_t(combo);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "combo " << combo << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng rng(seed);
    RandomCase rc = RandomCase::make(rng);
    Scene scene(rc.level, rc.block_level);
    fill_random_field(scene, rng);

    RenderOptions skip_on = rc.opt;
    skip_on.empty_skipping = true;
    RenderOptions skip_off = rc.opt;
    skip_off.empty_skipping = false;

    RenderStats on_stats, off_stats;
    img::Image with_skip = render_frame(rc.camera, rc.tf, skip_on,
                                        scene.rblocks, scene.blocks, kUnit,
                                        &on_stats);
    img::Image without = render_frame(rc.camera, rc.tf, skip_off,
                                      scene.rblocks, scene.blocks, kUnit,
                                      &off_stats);
    EXPECT_TRUE(images_identical(with_skip, without));
    EXPECT_EQ(on_stats.rays, off_stats.rays);
    EXPECT_EQ(on_stats.shaded_samples, off_stats.shaded_samples);
    // Skipping trades interpolated samples for skipped ones, never more.
    EXPECT_LE(on_stats.samples, off_stats.samples);
    EXPECT_EQ(off_stats.skipped_samples, 0u);
    total_skipped += on_stats.skipped_samples;
  }
  // At least one of the quiet-region scenes must actually skip something,
  // or the optimization (and this test) is vacuous.
  EXPECT_GT(total_skipped, 0u);
}

// Tile-size invariance: the decomposition is a scheduling detail.
TEST(RenderDeterminism, TileSizeCannotChangeTheImage) {
  const std::uint64_t base = base_seed();
  std::uint64_t state = base * 31337u;
  std::uint64_t seed = splitmix64(state);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Rng rng(seed);
  RandomCase rc = RandomCase::make(rng);
  Scene scene(rc.level, rc.block_level);
  fill_random_field(scene, rng);

  img::Image ref = render_frame(rc.camera, rc.tf, rc.opt, scene.rblocks,
                                scene.blocks, kUnit);
  util::ThreadPool pool(3);
  for (int tile : {1, 7, 16, 1000}) {
    SCOPED_TRACE(::testing::Message() << "tile " << tile);
    img::Image t = render_frame(rc.camera, rc.tf, rc.opt, scene.rblocks,
                                scene.blocks, kUnit, nullptr, &pool, tile);
    EXPECT_TRUE(images_identical(ref, t));
  }
}

}  // namespace
}  // namespace qv::render
