#include "stream/session.hpp"

#include <algorithm>
#include <cstring>

#include "metrics/metrics.hpp"
#include "obs/lineage.hpp"
#include "trace/trace.hpp"

namespace qv::stream {

namespace {

// Static-local handles: registration locks once, the hot path is atomics.
struct StreamMetrics {
  metrics::Counter& bytes_out = metrics::counter("stream.bytes_out");
  metrics::Counter& dropped = metrics::counter("stream.dropped_frames");
  metrics::Counter& delivered = metrics::counter("stream.frames_delivered");
  metrics::Counter& keyframes = metrics::counter("stream.keyframes");
  metrics::Counter& decode_failures =
      metrics::counter("stream.decode_failures");
  metrics::Histogram& queue_depth = metrics::histogram(
      "stream.queue_depth",
      metrics::HistogramSpec::fixed({0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}));
  // Instantaneous wire bytes in flight, queued or propagating: depth
  // alone hides how much memory a slow link pins, and the server's byte
  // budget is stated in these units. Shared with the DeliveryServer path.
  metrics::Gauge& queue_bytes = metrics::gauge("stream.queue_bytes");
  metrics::Histogram& display_latency = metrics::histogram(
      "stream.display_latency", metrics::HistogramSpec::duration_seconds());
  // Per-stage e2e latency, same names as the DeliveryServer path (the
  // registry is idempotent by name, so both feed one histogram set).
  metrics::Histogram& e2e_encode = metrics::histogram(
      "stream.e2e.encode", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& e2e_queue_wait = metrics::histogram(
      "stream.e2e.queue_wait", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& e2e_wire = metrics::histogram(
      "stream.e2e.wire", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& e2e_decode = metrics::histogram(
      "stream.e2e.decode", metrics::HistogramSpec::duration_seconds());
  static StreamMetrics& get() {
    static StreamMetrics m;
    return m;
  }
};

}  // namespace

StreamSession::StreamSession(const StreamConfig& cfg, int width, int height)
    : cfg_(cfg),
      encoder_(width, height),
      link_({cfg.bandwidth_bytes_per_s, cfg.latency_s, cfg.fault}),
      controller_(cfg.controller) {}

void StreamSession::set_epoch(std::uint32_t epoch) {
  epoch_ = epoch;
  encoder_.set_epoch(epoch);
}

void StreamSession::apply_view_change(std::uint32_t epoch) {
  epoch_ = epoch;
  encoder_.set_epoch(epoch);
  // A forgotten reference forces the next encode to a keyframe; the
  // controller's earned level and recovery credit are deliberately kept.
  encoder_.invalidate_chain();
}

// Decode, verify and account every frame in batch_ (filled by the link's
// poll or drain), then release the batch's Wires.
void StreamSession::handle_deliveries() {
  auto& m = StreamMetrics::get();
  for (DeliveredFrame& d : batch_) {
    const double lat = d.delivered_at - d.sent_at;
    std::uint32_t frame_epoch = 0;
    if (d.wire->size() >= sizeof(FrameHeader)) {
      FrameHeader h;
      std::memcpy(&h, d.wire->data(), sizeof(h));
      frame_epoch = h.epoch;
    }
    if (obs::lineage::enabled()) {
      obs::lineage::record_virtual(obs::lineage::Stage::kWire, d.step,
                                   frame_epoch,
                                   obs::lineage::ChannelKind::kClient,
                                   /*channel=*/0, d.sent_at, lat);
    }
    if (metrics::enabled()) {
      m.e2e_wire.observe(lat);
      const double ideal =
          double(d.bytes) / cfg_.bandwidth_bytes_per_s + cfg_.latency_s;
      m.e2e_queue_wait.observe(std::max(0.0, lat - ideal));
    }
    const bool timed = metrics::enabled() || obs::lineage::enabled();
    const std::int64_t t0 = timed ? trace::now_since_epoch_ns() : 0;
    auto frame = viewer_.decode(*d.wire);
    if (timed) {
      const double decode_s = double(trace::now_since_epoch_ns() - t0) * 1e-9;
      if (metrics::enabled()) m.e2e_decode.observe(decode_s);
      if (obs::lineage::enabled()) {
        obs::lineage::record_wall(obs::lineage::Stage::kDecode, d.step,
                                  frame_epoch,
                                  obs::lineage::ChannelKind::kClient,
                                  /*channel=*/0, decode_s);
      }
    }
    if (!frame) {
      ++rep_.decode_failures;
      m.decode_failures.add();
      continue;
    }
    ++rep_.frames_delivered;
    m.delivered.add();
    rep_.delivery_latencies_s.push_back(lat);
    latency_sum_ += lat;
    rep_.max_display_latency_s = std::max(rep_.max_display_latency_s, lat);
    if (metrics::enabled()) m.display_latency.observe(lat);
    if (cfg_.capture) {
      cfg_.capture->frames.push_back({frame->step, frame->tier,
                                      frame->kind == FrameKind::kKey, lat,
                                      std::move(frame->image), frame->epoch});
    }
    if (!cfg_.record_path.empty()) record_.push_back(std::move(d.wire));
  }
  batch_.clear();
}

void StreamSession::submit(double now, int step, const img::Image8& frame) {
  auto& m = StreamMetrics::get();
  ++rep_.frames_submitted;
  link_.poll(now, batch_);
  handle_deliveries();

  const int depth = link_.backlog();
  const std::size_t queued = link_.in_flight_bytes();
  rep_.peak_queue_bytes = std::max(rep_.peak_queue_bytes, queued);
  m.queue_bytes.set(double(queued));
  if (metrics::enabled()) m.queue_depth.observe(double(depth));
  Decision d = controller_.on_frame(depth);
  rep_.peak_level = std::max(rep_.peak_level, d.level);
  if (d.drop) {
    ++rep_.frames_dropped;
    m.dropped.add();
    if (obs::lineage::enabled()) {
      obs::lineage::record_virtual(obs::lineage::Stage::kDrop, step, epoch_,
                                   obs::lineage::ChannelKind::kClient,
                                   /*channel=*/0, now);
    }
    if (cfg_.capture) cfg_.capture->dropped_steps.push_back(step);
    return;
  }

  Wire wire;
  {
    trace::Span span("stream", "encode", step);
    const bool timed = metrics::enabled() || obs::lineage::enabled();
    const std::int64_t t0 = timed ? trace::now_since_epoch_ns() : 0;
    wire = make_wire(encoder_.encode(step, frame, d.tier, d.keyframe));
    if (timed) {
      const double enc_s = double(trace::now_since_epoch_ns() - t0) * 1e-9;
      if (metrics::enabled()) m.e2e_encode.observe(enc_s);
      if (obs::lineage::enabled()) {
        obs::lineage::record_wall(obs::lineage::Stage::kEncode, step, epoch_,
                                  obs::lineage::ChannelKind::kClient,
                                  /*channel=*/0, enc_s);
      }
    }
  }
  // Count keyframes off the wire header: the first frame is one regardless
  // of what the controller asked for.
  FrameHeader h;
  std::memcpy(&h, wire->data(), sizeof(h));
  if (h.kind == std::uint8_t(FrameKind::kKey)) {
    ++rep_.keyframes;
    m.keyframes.add();
  }
  rep_.bytes_out += wire->size();
  m.bytes_out.add(wire->size());
  link_.send(now, step, std::move(wire));
  if (obs::lineage::enabled()) {
    obs::lineage::record_virtual(obs::lineage::Stage::kEnqueue, step, epoch_,
                                 obs::lineage::ChannelKind::kClient,
                                 /*channel=*/0, now);
  }
  // The send itself grows the queue; the peak must see it.
  rep_.peak_queue_bytes =
      std::max(rep_.peak_queue_bytes, link_.in_flight_bytes());
  m.queue_bytes.set(double(link_.in_flight_bytes()));
}

StreamReport StreamSession::finish() {
  link_.drain(batch_);
  handle_deliveries();
  StreamMetrics::get().queue_bytes.set(0.0);  // drained
  if (!cfg_.record_path.empty()) write_record_file(cfg_.record_path, record_);
  rep_.final_level = controller_.level();
  rep_.avg_display_latency_s =
      rep_.frames_delivered > 0
          ? latency_sum_ / double(rep_.frames_delivered)
          : 0.0;
  return rep_;
}

}  // namespace qv::stream
