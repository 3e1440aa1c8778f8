// A rendering processor (Figure 2), shared by run_pipeline and run_insitu.
// It owns blocks whose value buffers the driver's receive loop fills each
// step; step() raycasts them, composites across the renderers and sends the
// frame from the render root to the output processor. The camera,
// visibility order and transfer-function window follow the ViewSchedule.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/block_msg.hpp"
#include "core/config.hpp"
#include "core/view_schedule.hpp"
#include "io/block_index.hpp"
#include "mesh/hex_mesh.hpp"
#include "render/block_data.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/comm.hpp"

namespace qv::core {

// The "one-time preprocessing" of §4, identical on every rank because the
// mesh never changes.
struct BlockLayout {
  std::vector<octree::Block> blocks;
  std::vector<int> owners;
  io::BlockNodeIndex index;
};

// Decompose `mesh` at `block_level` and assign the blocks to
// `render_procs` renderers with assign_for_view under `camera` (step 0's).
BlockLayout make_block_layout(const mesh::HexMesh& mesh, int block_level,
                              const render::Camera& camera, int render_procs,
                              octree::AssignStrategy assign);

// A driver's world is `lead` input (or solver) ranks, `render_procs`
// renderers and the output rank. Returns this rank's role (0 lead,
// 1 render, 2 output) after naming its trace lane.
int driver_role(const vmpi::Comm& world, int lead, int render_procs,
                const char* lead_name);

class RenderRank {
 public:
  struct Options {
    int width = 0;
    int height = 0;
    render::RenderOptions render;  // the un-steered options
    int render_threads = 1;        // see PipelineConfig::render_threads
    Compositor compositor = Compositor::kSlic;
    int composite_k = 4;           // kRadixK group-size cap
    bool compress = false;         // RLE the compositing traffic
  };

  // `comm` spans the renderers; the last rank of `world` is the output
  // processor.
  RenderRank(const mesh::HexMesh& mesh, const BlockLayout& layout,
             const ViewSchedule& views, const render::TransferFunction& tf,
             const Options& options, vmpi::Comm& world, vmpi::Comm& comm);

  // The owned blocks (ascending global ids) and their value buffers: index
  // i of one is index i of the other.
  std::span<const std::size_t> owned() const { return owned_; }
  std::vector<float>& values(std::size_t i) { return values_[i]; }
  // Index of global block `b` in owned(), or -1 when another rank owns it.
  int local(std::size_t b) const { return local_[b]; }
  const std::vector<int>& owners() const { return owners_; }

  // Dequantize a checked block message into its block's value buffer;
  // throws when this rank does not own hdr.id or the value count differs.
  void unpack(const BlockMsgHeader& hdr, std::span<const std::uint8_t> msg);

  // Adopt a new assignment; value buffers and costs() restart at zero.
  void reassign(std::vector<int> owners);

  // Render and composite step `s` (lineage events carry `epoch`); the
  // render root sends the frame, flagged `degraded`.
  void step(int s, std::uint32_t epoch, bool degraded);

  // Per owned block, the seconds spent on it since reassign(), for the
  // rebalancer.
  std::span<const double> costs() const { return costs_; }
  double render_seconds() const { return render_s_; }
  double composite_seconds() const { return composite_s_; }

 private:
  void fold_view(int s);

  const mesh::HexMesh& mesh_;
  const BlockLayout& layout_;
  const ViewSchedule& views_;
  const render::TransferFunction& tf_;
  Options opt_;
  vmpi::Comm& world_;
  vmpi::Comm& comm_;

  std::vector<int> owners_;
  std::vector<std::size_t> owned_;
  std::vector<int> local_;
  std::vector<render::RenderBlock> rblocks_;
  std::vector<std::vector<float>> values_;
  std::vector<double> costs_;
  std::vector<std::uint8_t> scratch_;  // decompressed payloads

  render::Raycaster rc_;
  std::uint32_t steer_epoch_ = 0;
  float azimuth_;
  render::Camera camera_;
  std::vector<std::uint32_t> rank_of_;  // block -> global visibility rank
  util::ThreadPool pool_;

  double render_s_ = 0.0;
  double composite_s_ = 0.0;
};

}  // namespace qv::core
