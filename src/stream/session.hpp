// The output processor's end of the remote frame-delivery path.
//
// A StreamSession ties the pieces together: each composited 8-bit frame is
// offered with the pipeline's wall-clock time; the session polls the
// simulated WAN link for frames that finished crossing by then, decodes
// them with an in-process viewer (FrameDecoder) to measure display latency
// and verify integrity, reads the resulting queue depth, asks the
// DegradationController what to do, and either drops the frame or encodes
// and sends it. finish() drains the link, optionally writes the delivered
// wire frames to a record file for `quakeviz view`, and returns the
// per-run StreamReport.
//
// Single-threaded by construction: only the output rank touches a session.
// Every decision is visible as trace spans ("stream"/"encode") and metrics
// (stream.bytes_out, stream.dropped_frames, stream.queue_depth, ...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stream/control.hpp"
#include "stream/controller.hpp"
#include "stream/frame_codec.hpp"
#include "stream/link.hpp"

namespace qv::stream {

// Frames as the in-process viewer saw them — tests use this to compare
// delivered pixels against the PPMs the output processor wrote locally.
struct StreamCapture {
  struct Frame {
    int step = 0;
    int tier = 0;
    bool keyframe = false;
    double latency_s = 0.0;  // delivered_at - sent_at on the link clock
    img::Image8 image;
    std::uint32_t epoch = 0;  // view epoch echoed by the frame header
  };
  std::vector<Frame> frames;
  std::vector<int> dropped_steps;
};

struct StreamConfig {
  bool enabled = false;
  double bandwidth_bytes_per_s = 8e6;
  double latency_s = 0.02;
  ControllerConfig controller;
  sim::BandwidthFaultConfig fault;
  std::string record_path;          // when set, finish() writes a record file
  StreamCapture* capture = nullptr; // test hook: in-process viewer output
};

struct StreamReport {
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t keyframes = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t decode_failures = 0;
  std::size_t peak_queue_bytes = 0;  // most wire bytes in flight at once
  double avg_display_latency_s = 0.0;
  double max_display_latency_s = 0.0;
  int final_level = 0;
  int peak_level = 0;
  // One entry per delivered frame (link virtual time): the run report's
  // exact e2e percentiles and the SLO verdict are computed from these.
  std::vector<double> delivery_latencies_s;
};

class StreamSession {
 public:
  StreamSession(const StreamConfig& cfg, int width, int height);

  // Offer the frame for step `step` at wall-clock time `now` (seconds since
  // pipeline start). May drop it; never blocks.
  void submit(double now, int step, const img::Image8& frame);

  // View epoch stamped into frame headers and lineage events from the next
  // encode on ((step, epoch) is the end-to-end frame id).
  void set_epoch(std::uint32_t epoch);

  // A steering edit was applied: stamp the new epoch and drop the encoder's
  // delta reference, forcing the next frame to a keyframe — same contract
  // as DeliveryServer::apply_view_change, for the point-to-point path. The
  // degradation controller's level/credit survive (an edit is not a
  // network event).
  void apply_view_change(std::uint32_t epoch);

  // Where the remote viewer's steering edits land (see stream/control.hpp).
  SteerInbox& steer_inbox() { return steer_inbox_; }

  // Drain the link, write the record file if configured, return the report.
  StreamReport finish();

 private:
  void handle_deliveries();

  std::uint32_t epoch_ = 0;
  StreamConfig cfg_;
  SteerInbox steer_inbox_;
  FrameEncoder encoder_;
  FrameDecoder viewer_;  // in-process viewer: decode + verify + latency
  WanLink link_;
  DegradationController controller_;
  StreamReport rep_;
  double latency_sum_ = 0.0;
  std::vector<DeliveredFrame> batch_;  // reused by every poll and the drain
  std::vector<Wire> record_;           // delivered wires, for --stream-record
};

}  // namespace qv::stream
