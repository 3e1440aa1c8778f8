#include "core/render_rank.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "compositing/binary_swap.hpp"
#include "compositing/direct_send.hpp"
#include "compositing/radix_k.hpp"
#include "compositing/slic.hpp"
#include "core/frame_msg.hpp"
#include "obs/lineage.hpp"
#include "render/order.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace qv::core {

BlockLayout make_block_layout(const mesh::HexMesh& mesh, int block_level,
                              const render::Camera& camera, int render_procs,
                              octree::AssignStrategy assign) {
  BlockLayout l;
  l.blocks = octree::decompose(mesh.octree(), block_level);
  l.owners = assign_for_view(l.blocks, mesh.octree(), camera, render_procs,
                             assign);
  l.index = io::BlockNodeIndex(mesh, l.blocks);
  return l;
}

int driver_role(const vmpi::Comm& world, int lead, int render_procs,
                const char* lead_name) {
  const int r = world.rank();
  const int role = r < lead ? 0 : (r < lead + render_procs ? 1 : 2);
  if (trace::enabled()) {
    // Replace the runtime's generic "rank N" label with the role, so traces
    // read as input/render/output lanes.
    char tname[32];
    if (role == 0)
      std::snprintf(tname, sizeof(tname), "%s %d", lead_name, r);
    else if (role == 1)
      std::snprintf(tname, sizeof(tname), "render %d", r - lead);
    else
      std::snprintf(tname, sizeof(tname), "output");
    trace::set_thread(r, tname);
  }
  return role;
}

RenderRank::RenderRank(const mesh::HexMesh& mesh, const BlockLayout& layout,
                       const ViewSchedule& views,
                       const render::TransferFunction& tf,
                       const Options& options, vmpi::Comm& world,
                       vmpi::Comm& comm)
    : mesh_(mesh),
      layout_(layout),
      views_(views),
      tf_(tf),
      opt_(options),
      world_(world),
      comm_(comm),
      rc_(tf, options.render, mesh.domain().extent().x),
      // NaN matches no azimuth: the first step computes the order.
      azimuth_(std::numeric_limits<float>::quiet_NaN()),
      camera_(views.camera(0)),
      rank_of_(layout.blocks.size()),
      // Intra-rank render pool: render_threads workers (including this
      // rank's own thread) share each step's (block x tile) task list.
      pool_(std::max(1, options.render_threads), [rr = comm.rank()](int w) {
        if (!trace::enabled()) return;
        char tname[32];
        std::snprintf(tname, sizeof(tname), "render %d.w%d", rr, w);
        trace::set_thread(1000 + rr * 64 + w, tname);
      }) {
  reassign(layout.owners);
}

void RenderRank::reassign(std::vector<int> owners) {
  owners_ = std::move(owners);
  owned_.clear();
  local_.assign(layout_.blocks.size(), -1);
  for (std::size_t b = 0; b < layout_.blocks.size(); ++b) {
    if (owners_[b] != comm_.rank()) continue;
    local_[b] = int(owned_.size());
    owned_.push_back(b);
  }
  rblocks_.clear();
  rblocks_.reserve(owned_.size());
  values_.assign(owned_.size(), {});
  for (std::size_t i = 0; i < owned_.size(); ++i) {
    auto nodes = layout_.index.block_nodes(owned_[i]);
    rblocks_.emplace_back(mesh_, layout_.blocks[owned_[i]], nodes);
    values_[i].resize(nodes.size());
  }
  costs_.assign(owned_.size(), 0.0);
}

void RenderRank::unpack(const BlockMsgHeader& hdr,
                        std::span<const std::uint8_t> msg) {
  const int li = hdr.id >= 0 && std::size_t(hdr.id) < local_.size()
                     ? local_[std::size_t(hdr.id)]
                     : -1;
  if (li < 0)
    throw std::runtime_error("render rank: block message for an unowned block");
  std::vector<float>& dst = values_[std::size_t(li)];
  if (dst.size() != hdr.count)
    throw std::runtime_error("render rank: block message size mismatch");
  unpack_block_msg(hdr, msg, scratch_,
                   [&](std::size_t i, float v) { dst[i] = v; });
}

// Steering edits fold in at the step boundary: the first step rendered at
// a new epoch picks up the edited transfer-function window, and any turn
// of the view (orbit or steered camera) redoes the view-dependent
// preprocessing of §4, the global visibility order.
void RenderRank::fold_view(int s) {
  if (views_.epoch(s) != steer_epoch_) {
    const stream::SteeringState v = views_.at(s);
    render::RenderOptions opt = opt_.render;
    opt.value_lo = v.value_lo;
    opt.value_hi = v.value_hi;
    rc_ = render::Raycaster(tf_, opt, mesh_.domain().extent().x);
    steer_epoch_ = v.epoch;
  }
  const float az = views_.azimuth(s);
  if (az == azimuth_) return;
  azimuth_ = az;
  camera_ = views_.camera(s);
  auto order = render::visibility_order(layout_.blocks, mesh_.domain(),
                                        camera_.eye());
  for (std::size_t i = 0; i < order.size(); ++i)
    rank_of_[order[i]] = std::uint32_t(i);
}

void RenderRank::step(int s, std::uint32_t epoch, bool degraded) {
  fold_view(s);
  WallTimer t;
  std::vector<render::PartialImage> partials;
  {
    trace::Span render_span("pipeline", "render", s);
    std::vector<std::uint32_t> orders(owned_.size());
    // Per-block cost for the rebalancer: value install (macro ranges
    // included) plus the summed wall time of the block's render tasks.
    std::vector<double> block_secs(owned_.size(), 0.0);
    for (std::size_t i = 0; i < owned_.size(); ++i) {
      WallTimer bt;
      rblocks_[i].set_values(values_[i]);
      orders[i] = rank_of_[owned_[i]];
      block_secs[i] = bt.seconds();
    }
    partials = render::render_blocks(camera_, rc_, rblocks_, orders, &pool_,
                                     render::kRenderTile, nullptr,
                                     block_secs.data());
    for (std::size_t i = 0; i < owned_.size(); ++i) costs_[i] += block_secs[i];
  }
  const double render_s = t.seconds();
  render_s_ += render_s;
  if (obs::lineage::enabled()) {
    obs::lineage::record_wall(obs::lineage::Stage::kRender, s, epoch,
                              obs::lineage::ChannelKind::kRank, world_.rank(),
                              render_s);
  }
  t.reset();

  compositing::CompositeResult comp;
  {
    trace::Span composite_span("pipeline", "composite", s);
    const int w = opt_.width, h = opt_.height;
    switch (opt_.compositor) {
      case Compositor::kSlic:
        comp = compositing::slic(comm_, partials, w, h, opt_.compress, 0);
        break;
      case Compositor::kBinarySwap:
        comp = compositing::binary_swap(comm_, partials, w, h, opt_.compress,
                                        0);
        break;
      case Compositor::kRadixK:
        comp = compositing::radix_k(comm_, partials, w, h, opt_.composite_k,
                                    opt_.compress, 0);
        break;
      case Compositor::kDirectSend:
        comp = compositing::direct_send(comm_, partials, w, h, opt_.compress,
                                        0);
        break;
    }
  }
  const double composite_s = t.seconds();
  composite_s_ += composite_s;
  if (obs::lineage::enabled()) {
    obs::lineage::record_wall(obs::lineage::Stage::kComposite, s, epoch,
                              obs::lineage::ChannelKind::kRank, world_.rank(),
                              composite_s);
  }

  if (comm_.rank() == 0) {
    world_.isend(world_.size() - 1, frame_msg_tag(s),
                 make_frame_msg(s, degraded, comp.image.pixels()));
  }
}

}  // namespace qv::core
