// The per-step view of a batch run: the orbit camera plus the folded
// steering trace (SteeringConfig). Every rank of run_pipeline and
// run_insitu builds the same schedule from the configuration alone, so
// renderers and the output processor agree on each frame's (step, epoch)
// id with no runtime broadcast.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
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

}  // namespace qv::core
