#include "stream/link.hpp"

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

namespace qv::stream {

WanLinkConfig WanLink::validated(WanLinkConfig cfg) {
  if (!(cfg.bandwidth_bytes_per_s > 0.0) ||
      !std::isfinite(cfg.bandwidth_bytes_per_s)) {
    throw std::invalid_argument(
        "WanLink: bandwidth_bytes_per_s must be finite and > 0, got " +
        std::to_string(cfg.bandwidth_bytes_per_s));
  }
  // The link clock follows its caller's clock (wall time for the pipeline
  // drivers); give pre-scheduled outage windows a horizon no run outlives.
  if (cfg.fault.active() && cfg.fault.horizon_seconds <= 0.0)
    cfg.fault.horizon_seconds = 3600.0;
  return cfg;
}

sim::Process WanLink::transmit(int step, double sent_at, Wire wire) {
  const std::size_t bytes = wire->size();
  co_await conn_.acquire();
  co_await faults_.transfer(double(bytes));
  conn_.release();
  ++serialized_;
  // Propagation happens after the connection frees: the next frame's bytes
  // can be in flight while this one crosses the last hop.
  if (cfg_.latency_s > 0.0) co_await sim::delay(engine_, cfg_.latency_s);
  ready_.push_back({step, sent_at, engine_.now(), bytes, std::move(wire)});
  ++delivered_;
  delivered_bytes_ += bytes;
}

void WanLink::send(double now, int step, Wire wire) {
  engine_.run_until(now);
  ++sent_;
  sent_bytes_ += wire->size();
  transmit(step, engine_.now(), std::move(wire));
}

// Both buffers keep their capacity: ready_ for the link's next deliveries,
// `out` for the caller's next batch.
std::vector<DeliveredFrame>& WanLink::take_ready(
    std::vector<DeliveredFrame>& out) {
  out.assign(std::make_move_iterator(ready_.begin()),
             std::make_move_iterator(ready_.end()));
  ready_.clear();
  return out;
}

std::vector<DeliveredFrame>& WanLink::poll(double now,
                                           std::vector<DeliveredFrame>& out) {
  engine_.run_until(now);
  return take_ready(out);
}

std::vector<DeliveredFrame>& WanLink::drain(std::vector<DeliveredFrame>& out) {
  engine_.run();
  return take_ready(out);
}

}  // namespace qv::stream
