// Simulated WAN link between the output processor and a remote viewer.
//
// The pipeline's own clock is wall time, but the link is modeled in the
// discrete-event engine's virtual time: every send spawns a transfer
// coroutine that first acquires the connection (frames on one viewer
// connection serialize FIFO, like a single TCP stream — a delta must never
// overtake the keyframe it references), then pushes its bytes through the
// bandwidth model, optionally modulated by the seeded outage generator
// (FaultyBandwidth), followed by a fixed propagation latency. The caller
// drives the model in lockstep with its clock via Engine::run_until — so a
// frame "delivers" exactly when the virtual transfer completes. backlog()
// is the honest queue depth the backpressure controller needs: frames still
// waiting for or on the wire, not those already crossing the last hop.
//
// send() never blocks: the send queue is the set of in-flight transfers,
// and bounding it is the controller's job, not the link's. The link holds a
// reference to each shared Wire, never a copy of its bytes: a frame fanned
// out to N links is one buffer in memory, whatever each link's accounting
// says (see in_flight_bytes()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "stream/wire.hpp"

namespace qv::stream {

struct WanLinkConfig {
  double bandwidth_bytes_per_s = 8e6;  // ~64 Mbit/s; must be finite and > 0
  double latency_s = 0.02;             // one-way propagation delay
  sim::BandwidthFaultConfig fault;     // seeded outage windows (optional);
                                       // horizon 0 means 3600 s
};

// A frame that has finished crossing the link.
struct DeliveredFrame {
  int step = 0;
  double sent_at = 0.0;       // link-clock time the send was issued
  double delivered_at = 0.0;  // link-clock time the transfer completed
  std::size_t bytes = 0;
  Wire wire;  // the very buffer that was sent
};

class WanLink {
 public:
  // Throws std::invalid_argument when bandwidth is non-positive or
  // non-finite. A zero/negative rate used to be accepted as "infinite",
  // which let misconfigured benches report zero-virtual-time transfers;
  // every link now pays for its bytes. For a practically-infinite link,
  // pass a huge finite rate (e.g. 1e12 B/s).
  explicit WanLink(WanLinkConfig cfg)
      : cfg_(validated(cfg)),
        bw_(engine_, cfg_.bandwidth_bytes_per_s),
        faults_(engine_, bw_, cfg_.fault),
        conn_(engine_, 1) {}

  // Advance the link model to `now` and enqueue `wire` for transmission.
  void send(double now, int step, Wire wire);

  // Advance the model to `now` and move every frame delivered by then into
  // `out`, replacing its contents. The caller keeps `out` across calls, so
  // a poll reuses its capacity instead of allocating. Returns `out`.
  std::vector<DeliveredFrame>& poll(double now,
                                    std::vector<DeliveredFrame>& out);

  // Let every in-flight transfer finish (virtual time runs ahead of the
  // caller's clock) and move the stragglers into `out`, as poll does.
  std::vector<DeliveredFrame>& drain(std::vector<DeliveredFrame>& out);

  // Frames sent but not yet delivered, as of the last advance.
  int in_flight() const { return sent_ - delivered_; }
  // Frames sent but not yet fully serialized onto the link. Frames in
  // propagation are excluded: their delay is latency, not congestion, and
  // no degradation of later frames would shorten it.
  int backlog() const { return sent_ - serialized_; }
  // Wire bytes of those frames, counted once per send: the per-client queue
  // the delivery server's byte budget bounds. A buffer shared with other
  // links counts in full on each of them, so this is a per-link isolation
  // measure, not the memory the link adds.
  std::size_t in_flight_bytes() const { return sent_bytes_ - delivered_bytes_; }
  double now() const { return engine_.now(); }
  const sim::FaultyBandwidth& faults() const { return faults_; }
  // The validated configuration; lets latency accounting separate a frame's
  // ideal crossing time (bytes/bandwidth + latency) from queue wait.
  const WanLinkConfig& config() const { return cfg_; }

 private:
  static WanLinkConfig validated(WanLinkConfig cfg);

  sim::Process transmit(int step, double sent_at, Wire wire);
  std::vector<DeliveredFrame>& take_ready(std::vector<DeliveredFrame>& out);

  WanLinkConfig cfg_;
  sim::Engine engine_;
  sim::SharedBandwidth bw_;
  sim::FaultyBandwidth faults_;
  sim::Resource conn_;  // the single viewer connection: FIFO, one at a time
  std::vector<DeliveredFrame> ready_;
  int sent_ = 0;
  int serialized_ = 0;
  int delivered_ = 0;
  std::size_t sent_bytes_ = 0;
  std::size_t delivered_bytes_ = 0;
};

}  // namespace qv::stream
