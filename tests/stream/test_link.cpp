// WanLink: analytic delivery times on the virtual-time model, processor
// sharing under concurrency, seeded outage determinism, and the queue-depth
// accounting the backpressure controller relies on.
#include "stream/link.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace qv::stream {
namespace {

Wire bytes(std::size_t n) {
  return make_wire(std::vector<std::uint8_t>(n, 0xAB));
}

TEST(WanLink, SingleTransferMatchesAnalyticTime) {
  WanLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 1000.0;
  cfg.latency_s = 0.5;
  WanLink link(cfg);
  std::vector<DeliveredFrame> buf;
  link.send(0.0, 0, bytes(2000));  // 2 s of service + 0.5 s latency
  EXPECT_EQ(link.in_flight(), 1);
  EXPECT_TRUE(link.poll(2.4, buf).empty());
  auto got = link.poll(2.6, buf);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].step, 0);
  EXPECT_NEAR(got[0].delivered_at - got[0].sent_at, 2.5, 1e-6);
  EXPECT_EQ(link.in_flight(), 0);
}

TEST(WanLink, QueuedFramesSerializeFifo) {
  // Frames on the single viewer connection transmit one at a time, in send
  // order — a delta can never overtake the keyframe it references.
  WanLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 1000.0;
  cfg.latency_s = 0.0;
  WanLink link(cfg);
  std::vector<DeliveredFrame> buf;
  link.send(0.0, 0, bytes(1000));
  link.send(0.0, 1, bytes(1000));
  EXPECT_EQ(link.in_flight(), 2);
  auto first = link.poll(1.5, buf);
  ASSERT_EQ(first.size(), 1u);  // head of line done at 1.0, second at 2.0
  EXPECT_EQ(first[0].step, 0);
  EXPECT_NEAR(first[0].delivered_at, 1.0, 1e-6);
  EXPECT_EQ(link.in_flight(), 1);
  auto second = link.poll(2.1, buf);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].step, 1);
  EXPECT_NEAR(second[0].delivered_at, 2.0, 1e-6);
}

TEST(WanLink, BacklogExcludesFramesInPropagation) {
  // Two 1 s serializations, then 0.5 s on the last hop each: a frame leaves
  // the backlog when its bytes are on the wire, not when it is delivered.
  WanLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 1000.0;
  cfg.latency_s = 0.5;
  WanLink link(cfg);
  std::vector<DeliveredFrame> buf;
  link.send(0.0, 0, bytes(1000));
  link.send(0.0, 1, bytes(1000));
  EXPECT_EQ(link.backlog(), 2);
  EXPECT_TRUE(link.poll(1.2, buf).empty());
  EXPECT_EQ(link.backlog(), 1);
  EXPECT_EQ(link.in_flight(), 2);
  EXPECT_EQ(link.poll(2.2, buf).size(), 1u);
  EXPECT_EQ(link.backlog(), 0);
  EXPECT_EQ(link.in_flight(), 1);
  EXPECT_EQ(link.drain(buf).size(), 1u);
  EXPECT_EQ(link.backlog(), 0);
  EXPECT_EQ(link.in_flight(), 0);
}

TEST(WanLink, LatencyOnlyLinkDeliversInOrder) {
  WanLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 1e12;  // effectively latency-only
  cfg.latency_s = 0.1;
  WanLink link(cfg);
  std::vector<DeliveredFrame> buf;
  for (int s = 0; s < 4; ++s) link.send(0.25 * s, s, bytes(64));
  auto got = link.drain(buf);
  ASSERT_EQ(got.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(got[std::size_t(s)].step, s);
    EXPECT_NEAR(got[std::size_t(s)].delivered_at, 0.25 * s + 0.1, 1e-9);
  }
}

TEST(WanLink, RejectsNonPositiveBandwidth) {
  // "0 means infinite" used to be accepted, which let a mistyped bench flag
  // run every transfer in zero virtual time and report fantasy numbers.
  WanLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW(WanLink{cfg}, std::invalid_argument);
  cfg.bandwidth_bytes_per_s = -5.0;
  EXPECT_THROW(WanLink{cfg}, std::invalid_argument);
  cfg.bandwidth_bytes_per_s =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(WanLink{cfg}, std::invalid_argument);
  cfg.bandwidth_bytes_per_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(WanLink{cfg}, std::invalid_argument);
}

TEST(WanLink, SeededOutagesAreDeterministic) {
  WanLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 10000.0;
  cfg.latency_s = 0.01;
  cfg.fault.enabled = true;
  cfg.fault.seed = 42;
  cfg.fault.mean_up_seconds = 0.5;
  cfg.fault.mean_down_seconds = 0.5;
  cfg.fault.degraded_factor = 0.0;
  cfg.fault.horizon_seconds = 100.0;
  auto run = [&cfg]() {
    WanLink link(cfg);
    std::vector<DeliveredFrame> buf;
    for (int s = 0; s < 8; ++s) link.send(0.2 * s, s, bytes(2000));
    return link.drain(buf);
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(b.size(), 8u);
  bool any_delayed = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].delivered_at, b[i].delivered_at) << "frame " << i;
    // Solo service time is 0.2 s + latency; outages stretch some frames.
    if (a[i].delivered_at - a[i].sent_at > 0.5) any_delayed = true;
  }
  EXPECT_TRUE(any_delayed) << "outage schedule never hit a transfer";
  // And the outage trace itself is pinned by the seed.
  WanLink probe(cfg);
  EXPECT_FALSE(probe.faults().outages().empty());
}

TEST(WanLink, InFlightTracksBacklog) {
  WanLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 100.0;  // 1 s per 100-byte frame
  cfg.latency_s = 0.0;
  WanLink link(cfg);
  std::vector<DeliveredFrame> buf;
  for (int s = 0; s < 5; ++s) link.send(0.0, s, bytes(100));
  EXPECT_EQ(link.in_flight(), 5);
  // FIFO: frames complete at t = 1, 2, 3, 4, 5.
  auto got = link.poll(2.55, buf);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(link.in_flight(), 3);
  link.drain(buf);
  EXPECT_EQ(link.in_flight(), 0);
}

TEST(WanLink, DeliversTheSentBufferAndCountsItPerSend) {
  // One buffer sent twice on one link and once on another: every delivery
  // holds that very buffer (no copy), while each link's queue accounting
  // counts its bytes once per send.
  WanLinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 1000.0;
  cfg.latency_s = 0.0;
  WanLink a(cfg), b(cfg);
  const Wire w = bytes(500);
  a.send(0.0, 0, w);
  a.send(0.0, 1, w);
  b.send(0.0, 0, w);
  EXPECT_EQ(a.in_flight_bytes(), 1000u);
  EXPECT_EQ(b.in_flight_bytes(), 500u);
  EXPECT_EQ(w.use_count(), 4);  // ours + three queued sends

  std::vector<DeliveredFrame> buf;
  ASSERT_EQ(a.poll(0.75, buf).size(), 1u);  // first done at 0.5, second at 1
  EXPECT_EQ(buf[0].wire.get(), w.get());
  EXPECT_EQ(buf[0].bytes, 500u);
  EXPECT_EQ(a.in_flight_bytes(), 500u);
  ASSERT_EQ(a.drain(buf).size(), 1u);  // replaces the batch, reusing it
  EXPECT_EQ(buf[0].wire.get(), w.get());
  EXPECT_EQ(a.in_flight_bytes(), 0u);
  ASSERT_EQ(b.drain(buf).size(), 1u);
  EXPECT_EQ(buf[0].wire.get(), w.get());
  EXPECT_EQ(b.in_flight_bytes(), 0u);
  // The links let go of the buffer once it is delivered; only the batch
  // entry still holds it.
  EXPECT_EQ(w.use_count(), 2);
  buf.clear();
  EXPECT_EQ(w.use_count(), 1);
}

TEST(WanLink, ActiveFaultWithoutHorizonSchedulesOutages) {
  // Every link owner (the stream session, the delivery server, replay)
  // leaves the horizon at 0; the link itself picks one no run outlives.
  WanLinkConfig cfg;
  cfg.fault.enabled = true;
  cfg.fault.seed = 7;
  cfg.fault.mean_up_seconds = 10.0;
  cfg.fault.mean_down_seconds = 1.0;
  ASSERT_TRUE(cfg.fault.active());
  ASSERT_EQ(cfg.fault.horizon_seconds, 0.0);
  WanLink link(cfg);
  EXPECT_FALSE(link.faults().outages().empty());
  EXPECT_EQ(link.config().fault.horizon_seconds, 3600.0);
}

}  // namespace
}  // namespace qv::stream
