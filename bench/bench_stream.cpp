// Remote frame delivery: codec throughput and the latency-vs-bandwidth
// curve of the simulated WAN path.
//
// Part 1 measures the frame codec alone on a synthetic animation (smooth
// gradient + moving blob, the structure real frames have): encode/decode
// rate and how far delta coding shrinks the wire traffic versus sending
// every frame as a keyframe.
//
// Part 2 sweeps link bandwidth in virtual time: a fixed 24-frame animation
// produced at a fixed cadence is pushed through WanLink + the degradation
// controller at each bandwidth, reporting delivered/dropped counts, the
// controller's final level, and mean display latency. This is the table
// EXPERIMENTS.md quotes: above the knee the stream is lossless with
// latency pinned at propagation delay; below it the controller sheds
// fidelity (then frames) to keep latency bounded instead of divergent.
#include <cstdio>
#include <string>
#include <vector>

#include "img/delta.hpp"
#include "metrics/report.hpp"
#include "stream/controller.hpp"
#include "stream/frame_codec.hpp"
#include "stream/link.hpp"
#include "util/stats.hpp"

using namespace qv;

namespace {

constexpr int kW = 320;
constexpr int kH = 240;
constexpr int kFrames = 24;
constexpr double kCadence = 0.25;  // seconds between produced frames

img::Image8 animation_frame(int step) {
  img::Image8 im(kW, kH);
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      int cx = (13 * step) % kW, cy = (9 * step) % kH;
      int d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
      std::uint8_t blob = d2 < 400 ? std::uint8_t(250 - d2 / 2) : 0;
      im.set(x, y, std::uint8_t((x * 255) / kW), std::uint8_t((y * 255) / kH),
             blob);
    }
  }
  return im;
}

struct CodecStats {
  double encode_ms_per_frame = 0.0;
  double decode_ms_per_frame = 0.0;
  double delta_ratio = 0.0;  // delta wire bytes / keyframe wire bytes
};

CodecStats codec_part() {
  std::printf("Frame codec on a %dx%d synthetic animation (%d frames)\n\n",
              kW, kH, kFrames);
  std::vector<img::Image8> frames;
  for (int s = 0; s < kFrames; ++s) frames.push_back(animation_frame(s));

  CodecStats st;
  std::size_t delta_bytes = 0, key_bytes = 0;
  std::vector<std::vector<std::uint8_t>> wires;
  {
    stream::FrameEncoder enc(kW, kH);
    WallTimer t;
    for (int s = 0; s < kFrames; ++s) {
      wires.push_back(enc.encode(s, frames[std::size_t(s)]));
      delta_bytes += wires.back().size();
    }
    st.encode_ms_per_frame = 1e3 * t.seconds() / kFrames;
  }
  {
    stream::FrameEncoder enc(kW, kH);
    for (int s = 0; s < kFrames; ++s)
      key_bytes += enc.encode(s, frames[std::size_t(s)], 0, true).size();
  }
  {
    stream::FrameDecoder dec;
    WallTimer t;
    for (const auto& w : wires) {
      if (!dec.decode(w)) std::abort();
    }
    st.decode_ms_per_frame = 1e3 * t.seconds() / kFrames;
  }
  st.delta_ratio = double(delta_bytes) / double(key_bytes);
  std::printf("  encode %.3f ms/frame | decode %.3f ms/frame\n",
              st.encode_ms_per_frame, st.decode_ms_per_frame);
  std::printf("  wire bytes: delta %zu vs all-keyframe %zu (ratio %.3f)\n\n",
              delta_bytes, key_bytes, st.delta_ratio);
  return st;
}

struct SweepPoint {
  double bandwidth;
  int delivered = 0;
  int dropped = 0;
  int final_level = 0;
  double mean_latency = 0.0;
};

// Push the animation through the link at a fixed cadence, controller in the
// loop — all in virtual time, so the curve is machine-independent.
SweepPoint sweep_one(double bandwidth) {
  stream::WanLinkConfig lc;
  lc.bandwidth_bytes_per_s = bandwidth;
  lc.latency_s = 0.02;
  stream::WanLink link(lc);
  stream::FrameEncoder enc(kW, kH);
  stream::FrameDecoder dec;
  stream::DegradationController ctl;
  SweepPoint pt;
  pt.bandwidth = bandwidth;
  double latency_sum = 0.0;
  std::vector<stream::DeliveredFrame> batch;
  auto absorb = [&](const std::vector<stream::DeliveredFrame>& got) {
    for (auto& d : got) {
      if (!dec.decode(*d.wire)) std::abort();
      latency_sum += d.delivered_at - d.sent_at;
      ++pt.delivered;
    }
  };
  for (int s = 0; s < kFrames; ++s) {
    const double now = kCadence * s;
    absorb(link.poll(now, batch));
    auto decision = ctl.on_frame(link.backlog());
    if (decision.drop) {
      ++pt.dropped;
      continue;
    }
    link.send(now, s,
              stream::make_wire(enc.encode(s, animation_frame(s),
                                           decision.tier, decision.keyframe)));
  }
  absorb(link.drain(batch));
  pt.final_level = ctl.level();
  pt.mean_latency = pt.delivered > 0 ? latency_sum / pt.delivered : 0.0;
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  qv::metrics::BenchReporter rep("bench_stream", argc, argv);
  qv::WallTimer bench_timer;

  CodecStats cs = codec_part();

  std::printf("Latency vs bandwidth (%d frames at %.2f s cadence, 20 ms "
              "propagation)\n\n",
              kFrames, kCadence);
  std::printf("%-14s %-10s %-8s %-12s %-14s\n", "bandwidth B/s", "delivered",
              "dropped", "final level", "mean lat (s)");
  SweepPoint knee{};
  for (double bw : {2e3, 1e4, 5e4, 2e5, 1e6, 1e7}) {
    auto pt = sweep_one(bw);
    std::printf("%-14.0f %-10d %-8d %-12d %-14.3f\n", pt.bandwidth,
                pt.delivered, pt.dropped, pt.final_level, pt.mean_latency);
    if (pt.bandwidth == 2e5) knee = pt;
  }

  rep.track("encode_ms_per_frame", cs.encode_ms_per_frame, "ms");
  rep.track("decode_ms_per_frame", cs.decode_ms_per_frame, "ms");
  rep.track("delta_bytes_ratio", cs.delta_ratio, "ratio");
  rep.track("knee_mean_latency_s", knee.mean_latency, "s");
  rep.track("total_s", bench_timer.seconds(), "s");
  return rep.finish();
}
