// Golden-image regression: two small canonical frames (unlit and lit) are
// pinned by the SHA-256 of their 8-bit tone-mapped bytes. Any change to the
// transfer function, sampling, compositing, or shading math that shifts
// even one output byte fails loudly here instead of silently drifting the
// figures. If a change is *intended* to alter output, re-baseline by
// copying the printed actual hashes into kGoldenUnlit / kGoldenLit —
// deliberately, in the same commit as the change.
#include <gtest/gtest.h>

#include "io/block_index.hpp"
#include "quake/synthetic.hpp"
#include "render/raycast.hpp"
#include "util/sha256.hpp"
#include "util/thread_pool.hpp"

namespace qv::render {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

constexpr const char* kGoldenUnlit =
    "c154838b2a065942058b73248fdbf856b0e6c803c33a7d2db874c335d0e8eda0";
constexpr const char* kGoldenLit =
    "38f5d51d65d01bf0ebb26a6933d7743025ecc25649da664a169403be3de9c846";

std::string canonical_frame_hash(bool lighting, int threads = 1,
                                 RenderStats* stats = nullptr) {
  mesh::HexMesh mesh(mesh::LinearOctree::uniform(kUnit, 3));
  auto blocks = octree::decompose(mesh.octree(), 1);
  io::BlockNodeIndex index(mesh, blocks);
  std::vector<RenderBlock> rblocks;
  for (std::size_t b = 0; b < blocks.size(); ++b)
    rblocks.emplace_back(mesh, blocks[b], index.block_nodes(b));

  quake::SyntheticQuake q;
  auto positions = mesh.node_positions();
  std::vector<float> values(mesh.node_count());
  for (std::size_t n = 0; n < values.size(); ++n)
    values[n] = q.velocity_at(positions[n], 1.25f).norm();
  for (std::size_t b = 0; b < rblocks.size(); ++b) {
    std::vector<float> local;
    for (auto n : index.block_nodes(b)) local.push_back(values[n]);
    rblocks[b].set_values(std::move(local));
  }

  auto tf = TransferFunction::seismic();
  RenderOptions opt;
  opt.value_hi = 3.0f;
  opt.lighting = lighting;
  Camera cam = Camera::overview(kUnit, 64, 48);
  util::ThreadPool pool(threads);
  img::Image frame = render_frame(cam, tf, opt, rblocks, blocks, kUnit,
                                  stats, &pool);
  img::Image8 bytes = img::to_8bit(frame);
  return util::Sha256::hex(bytes.data(), bytes.byte_count());
}

TEST(GoldenImage, UnlitCanonicalFrame) {
  std::string got = canonical_frame_hash(false);
  EXPECT_EQ(got, kGoldenUnlit)
      << "canonical unlit frame changed; if intended, set kGoldenUnlit to "
      << got;
}

TEST(GoldenImage, LitCanonicalFrame) {
  std::string got = canonical_frame_hash(true);
  EXPECT_EQ(got, kGoldenLit)
      << "canonical lit frame changed; if intended, set kGoldenLit to "
      << got;
}

// The hash must not depend on the execution schedule: threaded rendering of
// the same canonical scene produces the same golden bytes.
TEST(GoldenImage, HashIsScheduleInvariant) {
  EXPECT_EQ(canonical_frame_hash(false, 3), kGoldenUnlit);
  EXPECT_EQ(canonical_frame_hash(true, 7), kGoldenLit);
}

// render.locate_misses counts the samples whose cell hint missed and paid
// for a search. Hints reset per ray, so the count is a property of the
// scene, not of the schedule; rays take several samples per cell, so most
// samples hit the hint, but a ray's first located sample always searches.
TEST(GoldenImage, LocateMissesAreScheduleInvariant) {
  RenderStats serial;
  EXPECT_EQ(canonical_frame_hash(false, 1, &serial), kGoldenUnlit);
  EXPECT_GT(serial.locate_misses, 0u);
  EXPECT_LT(serial.locate_misses, serial.samples);
  for (int threads : {2, 3, 7}) {
    RenderStats threaded;
    EXPECT_EQ(canonical_frame_hash(false, threads, &threaded), kGoldenUnlit);
    EXPECT_EQ(threaded.locate_misses, serial.locate_misses)
        << "threads " << threads;
    EXPECT_EQ(threaded.samples, serial.samples) << "threads " << threads;
  }
}

}  // namespace
}  // namespace qv::render
