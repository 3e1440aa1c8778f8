// The per-step view of a batch run: the orbit camera plus the folded
// steering trace (SteeringConfig). Every rank of run_pipeline and
// run_insitu builds the same schedule from the configuration alone, so
// renderers and the output processor agree on each frame's (step, epoch)
// id with no runtime broadcast.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "octree/blocks.hpp"
#include "render/camera.hpp"
#include "stream/control.hpp"

namespace qv::core {

class ViewSchedule {
 public:
  // With steering on, loads steer.trace_path (or generates a trace over
  // `steps` steps) and numbers it. Scrub edits are rejected: both drivers
  // render their steps in order. `driver` prefixes error messages.
  ViewSchedule(const char* driver, const SteeringConfig& steer, int steps,
               const render::RenderOptions& render, const Box3& domain,
               int width, int height, float orbit_deg_per_step);

  // The folded view at `step` (the un-steered base when steering is off).
  stream::SteeringState at(int step) const;
  // The view epoch of `step`: the newest applied request id, 0 unsteered.
  std::uint32_t epoch(int step) const;
  // The camera's azimuth at `step`: the orbit plus any steered turn.
  float azimuth(int step) const;
  // The orbit camera at `step`, turned by any steered camera edit.
  render::Camera camera(int step) const;

 private:
  bool steering_;
  stream::SteeringState base_;
  std::vector<stream::SteerEvent> trace_;
  Box3 domain_;
  int width_, height_;
  float orbit_deg_per_step_;
};

// The initial block -> renderer assignment of both drivers, which also
// fills each block's workload. kLargestFirst balances the view cost
// (render::view_costs) under `camera`, step 0's view, since that tracks
// what each renderer samples; the other strategies keep the paper's static
// cell-count estimate. Frames do not depend on the assignment: renderers
// composite per-block partials in global visibility order.
std::vector<int> assign_for_view(std::span<octree::Block> blocks,
                                 const mesh::LinearOctree& tree,
                                 const render::Camera& camera,
                                 int render_procs,
                                 octree::AssignStrategy strategy);

}  // namespace qv::core
