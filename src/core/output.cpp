#include "core/output.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/frame_msg.hpp"
#include "obs/lineage.hpp"

namespace qv::core {

OutputSink::OutputSink(int width, int height, std::string ppm_path,
                       const stream::StreamConfig& stream,
                       const stream::ServeFleetConfig& serve, bool steering,
                       vmpi::Comm& world, std::vector<img::Image>* frames_out)
    : width_(width),
      height_(height),
      ppm_path_(std::move(ppm_path)),
      steering_(steering),
      world_(world),
      frames_out_(frames_out) {
  if (stream.enabled) session_.emplace(stream, width, height);
  if (serve.enabled && serve.count > 0) {
    server_.emplace(serve.server, width, height);
    for (const auto& lc : stream::make_fleet(serve)) server_->join(0.0, lc);
  }
}

img::Image OutputSink::receive(int step, std::uint32_t epoch,
                               bool* degraded) {
  std::vector<std::uint8_t> msg;
  {
    trace::Span wait_span("pipeline", "wait_frame", step);
    world_.recv(vmpi::kAnySource, frame_msg_tag(step), msg);
  }
  begin(step, epoch);
  img::Image frame(width_, height_);
  auto view = parse_frame_msg(msg, frame.pixels().size());
  if (!view) throw std::runtime_error("output: bad frame message");
  std::memcpy(frame.pixels().data(), view->pixels.data(),
              view->pixels.size_bytes());
  if (degraded) *degraded = view->degraded;
  return frame;
}

void OutputSink::begin(int step, std::uint32_t epoch) {
  span_.emplace("pipeline", "frame", step);
  t0_ns_ = obs::lineage::enabled() ? trace::now_since_epoch_ns() : 0;
  step_ = step;
  epoch_ = epoch;
  if (epoch == last_epoch_) return;
  last_epoch_ = epoch;
  // (step, epoch) is the end-to-end frame id; the encoders stamp it into
  // every wire header from here on.
  if (!steering_) {
    if (session_) session_->set_epoch(epoch);
    if (server_) server_->set_epoch(epoch);
    return;
  }
  // A steered view changed: no delta may cross the edit. Per-client
  // controller state survives (an edit is not a network event).
  if (session_) session_->apply_view_change(epoch);
  if (server_) server_->apply_view_change(epoch);
  // epoch == the newest applied request id: this event records
  // request_id -> first-serving-step for the flight recorder.
  if (obs::lineage::enabled())
    obs::lineage::record_wall(obs::lineage::Stage::kSteerApply, step, epoch,
                              obs::lineage::ChannelKind::kRank, world_.rank());
}

void OutputSink::emit(img::Image frame) {
  frame_seconds_.push_back(clock_.seconds());
  if (!ppm_path_.empty() || session_ || server_) {
    const img::Image8 out8 = img::to_8bit(frame, {0.02f, 0.02f, 0.05f});
    if (!ppm_path_.empty()) {
      char name[16];
      std::snprintf(name, sizeof(name), "%04d.ppm", step_);
      img::write_ppm(ppm_path_ + name, out8);
    }
    if (session_) session_->submit(clock_.seconds(), step_, out8);
    if (server_) server_->submit(clock_.seconds(), step_, out8);
  }
  if (obs::lineage::enabled()) {
    obs::lineage::record_wall(
        obs::lineage::Stage::kFrame, step_, epoch_,
        obs::lineage::ChannelKind::kRank, world_.rank(),
        double(trace::now_since_epoch_ns() - t0_ns_) * 1e-9);
  }
  if (frames_out_) frames_out_->push_back(std::move(frame));
  span_.reset();
}

OutputSink::Report OutputSink::finish() {
  Report r;
  r.avg_interframe = steady_interframe(frame_seconds_);
  r.frame_seconds = std::move(frame_seconds_);
  if (session_) r.stream = session_->finish();
  if (server_) r.server = server_->finish();
  return r;
}

}  // namespace qv::core
