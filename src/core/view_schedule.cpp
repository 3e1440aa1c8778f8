#include "core/view_schedule.hpp"

#include <stdexcept>
#include <string>

#include "render/order.hpp"

namespace qv::core {

ViewSchedule::ViewSchedule(const char* driver, const SteeringConfig& steer,
                           int steps, const render::RenderOptions& render,
                           const Box3& domain, int width, int height,
                           float orbit_deg_per_step)
    : steering_(steer.enabled),
      domain_(domain),
      width_(width),
      height_(height),
      orbit_deg_per_step_(orbit_deg_per_step) {
  base_.value_lo = render.value_lo;
  base_.value_hi = render.value_hi;
  if (!steering_) return;
  std::vector<stream::SteerEvent> trace;
  if (!steer.trace_path.empty()) {
    std::string err;
    auto loaded = stream::load_steer_trace(steer.trace_path, &err);
    if (!loaded)
      throw std::runtime_error(std::string(driver) + ": steering trace: " + err);
    trace = std::move(*loaded);
  } else {
    trace = stream::make_steer_trace(steer.seed, steps, steer.edits);
  }
  for (const auto& ev : trace) {
    if (ev.msg.kind == stream::SteerKind::kScrub)
      throw std::runtime_error(
          std::string(driver) +
          ": scrub edits are serve-loop only — batch runs render their "
          "steps in order");
  }
  trace_ = stream::number_steer_trace(std::move(trace));
}

stream::SteeringState ViewSchedule::at(int step) const {
  return stream::fold_steer_trace(trace_, step, base_);
}

std::uint32_t ViewSchedule::epoch(int step) const {
  return steering_ ? at(step).epoch : 0;
}

float ViewSchedule::azimuth(int step) const {
  float az = orbit_deg_per_step_ * float(step);
  if (steering_) az += at(step).azimuth_deg;
  return az;
}

render::Camera ViewSchedule::camera(int step) const {
  return render::Camera::orbit(domain_, width_, height_, azimuth(step));
}

std::vector<int> assign_for_view(std::span<octree::Block> blocks,
                                 const mesh::LinearOctree& tree,
                                 const render::Camera& camera,
                                 int render_procs,
                                 octree::AssignStrategy strategy) {
  if (strategy == octree::AssignStrategy::kLargestFirst) {
    const std::vector<double> cost = render::view_costs(blocks, camera);
    for (std::size_t b = 0; b < blocks.size(); ++b) blocks[b].workload = cost[b];
  } else {
    octree::estimate_workloads(tree, blocks, octree::WorkloadModel::kCellCount);
  }
  return octree::assign_blocks(blocks, render_procs, strategy);
}

}  // namespace qv::core
