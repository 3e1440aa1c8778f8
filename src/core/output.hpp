// The output processor's frame sink: the last stage of the paper's frame
// loop (Figure 2, input -> render -> composite -> output), shared by
// run_pipeline and run_insitu. It receives each composited frame from the
// render root (core/frame_msg.hpp), stamps the view epoch on the delivery
// paths, tone-maps the frame once, writes the PPM, submits the
// same 8-bit frame to the optional StreamSession (one remote viewer) and
// DeliveryServer (a simulated fleet), and records the frame times. Streamed
// and served frames are therefore bit-identical to the PPM of their step.
// Single-threaded: only the output rank owns one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "img/image.hpp"
#include "stream/server.hpp"
#include "stream/session.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "vmpi/comm.hpp"

namespace qv::core {

class OutputSink {
 public:
  struct Report {
    std::vector<double> frame_seconds;  // completion time of each frame
    double avg_interframe = 0.0;        // steady_interframe(frame_seconds)
    stream::StreamReport stream;
    stream::ServerReport server;
  };

  // `cfg` is a PipelineConfig or an InsituConfig. Frames are written as
  // <cfg.output_dir>/<ppm_prefix>NNNN.ppm unless output_dir is empty;
  // frames arrive over `world`, whose rank labels lineage events;
  // `frames_out` (optional) receives every float frame in step order.
  template <typename Config>
  OutputSink(const Config& cfg, const char* ppm_prefix, vmpi::Comm& world,
             std::vector<img::Image>* frames_out)
      : OutputSink(cfg.width, cfg.height,
                   cfg.output_dir.empty()
                       ? ""
                       : cfg.output_dir + "/" + ppm_prefix,
                   cfg.stream, cfg.serve, cfg.steer.enabled, world,
                   frames_out) {}

  // Wait for the render root's frame of `step` and open it at view epoch
  // `epoch`; `degraded` (optional) receives the frame's stale-data flag.
  img::Image receive(int step, std::uint32_t epoch, bool* degraded = nullptr);
  // Tone-map, write and submit the frame opened by receive(), then close it.
  void emit(img::Image frame);
  // Drain the delivery paths and return the output-side report.
  Report finish();

 private:
  OutputSink(int width, int height, std::string ppm_path,
             const stream::StreamConfig& stream,
             const stream::ServeFleetConfig& serve, bool steering,
             vmpi::Comm& world, std::vector<img::Image>* frames_out);

  // Open the frame for `step` at view epoch `epoch`. A new epoch is
  // stamped on the delivery paths: with steering as a view change (every
  // delta chain restarts on a keyframe), else as a plain bump.
  void begin(int step, std::uint32_t epoch);

  WallTimer clock_;       // frame times count from construction
  int width_, height_;
  std::string ppm_path_;  // empty: write no PPMs
  bool steering_;
  vmpi::Comm& world_;
  std::vector<img::Image>* frames_out_;
  std::optional<stream::StreamSession> session_;
  std::optional<stream::DeliveryServer> server_;
  std::vector<double> frame_seconds_;
  std::uint32_t last_epoch_ = 0;  // the encoders start at epoch 0
  // The open frame.
  int step_ = 0;
  std::uint32_t epoch_ = 0;
  std::int64_t t0_ns_ = 0;
  std::optional<trace::Span> span_;
};

}  // namespace qv::core
