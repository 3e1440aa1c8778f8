// The parallel renderer's per-block raycasting kernel and a serial
// whole-frame driver (used as the single-processor reference and by tests).
//
// Sort-last: every block renders independently into a footprint-bounded
// partial image; compositing (here the reference compositor, in production
// the compositing module) merges partials in global visibility order.
//
// Intra-rank parallelism: render_blocks() fans a rank's block list out as
// (block x image-tile) tasks over a util::ThreadPool. Tiles of one block
// write disjoint pixels of that block's PartialImage and share no mutable
// state, so the threaded frame is bit-identical to the serial reference for
// any thread count — the contract tests/render/test_render_determinism.cpp
// enforces.
//
// Empty-space skipping: per-block macrocells (RenderBlock::macrocells())
// carry min/max node values; a macro whose value range maps to zero opacity
// under the transfer function contributes nothing to any ray, so the
// marcher jumps the ray to the macro's exit — conservatively one full step
// short of it — and re-enters the global step phase grid. Skipped samples
// would all have hit the `opacity <= 0 -> continue` branch, so the image is
// unchanged; only the sample counters differ between skip on and off.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "render/block_data.hpp"
#include "render/camera.hpp"
#include "render/partial_image.hpp"
#include "render/transfer.hpp"
#include "util/thread_pool.hpp"

namespace qv::render {

struct RenderOptions {
  float step_scale = 0.5f;   // ray step as a fraction of the finest cell edge
  float ref_length = 0.0f;   // opacity reference length; 0 = domain_x / 256
  bool lighting = false;
  float ambient = 0.35f;
  float diffuse = 0.65f;
  float early_exit_alpha = 0.98f;
  float value_lo = 0.0f;  // scalar normalization window mapped onto the TF
  float value_hi = 1.0f;
  // Skip fully-transparent macrocells. Bit-exact for the image; turning it
  // off only changes the samples/skip counters (tests compare both ways).
  bool empty_skipping = true;
};

struct RenderStats {
  std::uint64_t rays = 0;
  std::uint64_t samples = 0;
  std::uint64_t shaded_samples = 0;   // samples that hit non-zero opacity
  std::uint64_t skipped_samples = 0;  // sample positions jumped over as empty
  std::uint64_t macro_skips = 0;      // empty-macro jumps taken
  std::uint64_t locate_misses = 0;    // locates whose cell hint missed (searched)
};

// Default edge (pixels) of the square image tiles render_blocks() fans out.
inline constexpr int kRenderTile = 32;

class Raycaster {
 public:
  Raycaster(const TransferFunction& tf, RenderOptions options, float domain_extent_x);

  // Render one block; `order` is the block's global front-to-back rank.
  PartialImage render_block(const Camera& camera, const RenderBlock& block,
                            std::uint32_t order, RenderStats* stats = nullptr) const;

  // The tile kernel render_block and render_blocks share: march every pixel
  // of `tile` (screen coordinates, must lie inside out.rect) against one
  // block. `empty_macros`, when non-null, flags the block's macrocells
  // whose value range is fully transparent (from classify_empty_macros).
  void render_region(const Camera& camera, const RenderBlock& block,
                     const ScreenRect& tile, PartialImage& out,
                     const std::uint8_t* empty_macros,
                     RenderStats* stats = nullptr) const;

  // Per-macrocell emptiness under this caster's transfer function and value
  // window (1 = provably contributes nothing). Exact w.r.t. sampling, so
  // consulting it cannot change the image.
  std::vector<std::uint8_t> classify_empty_macros(const RenderBlock& block) const;

  const RenderOptions& options() const { return opt_; }

 private:
  const TransferFunction* tf_;
  RenderOptions opt_;
  float ref_length_;
};

// Render a rank's blocks as (block x tile) tasks on `pool` (nullptr or a
// 1-thread pool = serial, in index order). orders[i] is blocks[i]'s global
// front-to-back rank. Per-task stats are accumulated per worker and merged
// once at join (integer sums, so merge order cannot matter). When
// `per_block_seconds` is non-null it receives, per block, the summed wall
// time of that block's tasks (+=, caller zeroes) — the load-rebalancer's
// cost signal.
std::vector<PartialImage> render_blocks(
    const Camera& camera, const Raycaster& rc,
    std::span<const RenderBlock> blocks,
    std::span<const std::uint32_t> orders, util::ThreadPool* pool,
    int tile_size = kRenderTile, RenderStats* stats = nullptr,
    double* per_block_seconds = nullptr);

// Cancellable variant for interactive steering: the token is polled once
// per (block x tile) task, so an in-flight render of a stale view aborts
// within one tile's worth of work per worker instead of completing into the
// trash. Returns nullopt when cancelled; the partial frame, the per-worker
// stats, and the per-block timings of the aborted render are all discarded
// — `stats` and `per_block_seconds` are only ever touched by a COMPLETED
// render, so a cancellation can never leak half a frame's counters into
// RenderStats (the TSan cancellation stress pins this). Bumps the
// render.cancelled / render.cancelled_tiles counters on abort.
std::optional<std::vector<PartialImage>> render_blocks_cancellable(
    const Camera& camera, const Raycaster& rc,
    std::span<const RenderBlock> blocks,
    std::span<const std::uint32_t> orders, util::ThreadPool* pool,
    const util::CancelToken* cancel, int tile_size = kRenderTile,
    RenderStats* stats = nullptr, double* per_block_seconds = nullptr);

// Serial reference: order the blocks, render each, compose. This is what a
// 1-processor configuration computes; the distributed pipeline must produce
// the same image (a key integration-test invariant). When `pool` is given,
// rendering fans out over it (bit-identical output).
img::Image render_frame(const Camera& camera, const TransferFunction& tf,
                        RenderOptions options,
                        std::span<const RenderBlock> blocks,
                        std::span<const octree::Block> block_descs,
                        const Box3& domain, RenderStats* stats = nullptr,
                        util::ThreadPool* pool = nullptr,
                        int tile_size = kRenderTile);

}  // namespace qv::render
