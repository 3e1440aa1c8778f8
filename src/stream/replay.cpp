#include "stream/replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.hpp"
#include "obs/lineage.hpp"
#include "stream/chaos.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace qv::stream {

namespace {

struct ReplayMetrics {
  metrics::Counter& requests = metrics::counter("stream.replay.requests");
  metrics::Counter& renders = metrics::counter("stream.replay.renders");
  metrics::Counter& served = metrics::counter("stream.replay.cache_served");
  metrics::Histogram& e2e_encode = metrics::histogram(
      "stream.e2e.encode", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& e2e_queue_wait = metrics::histogram(
      "stream.e2e.queue_wait", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& e2e_wire = metrics::histogram(
      "stream.e2e.wire", metrics::HistogramSpec::duration_seconds());
  static ReplayMetrics& get() {
    static ReplayMetrics m;
    return m;
  }
};

// Exact order statistic: smallest value covering >= p% of the sorted mass.
double percentile_sorted(const std::vector<double>& sorted, int p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = (sorted.size() * std::size_t(p) + 99) / 100;
  return sorted[std::max<std::size_t>(idx, 1) - 1];
}

// Seed for the synthetic frame source. Fixed — NOT derived from cfg.seed —
// because the cache address does not cover it: the same (step, tier) must
// render the same pixels no matter which request trace asks for it, exactly
// like re-visualizing a dataset already on disk.
constexpr std::uint64_t kFrameSeed = 99;

template <typename T>
void put_pod(util::Sha256& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  h.update(&v, sizeof(v));
}

// Zipf(s) CDF over ranks 0..n-1: p_k proportional to 1/(k+1)^s.
std::vector<double> zipf_cdf(int n, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += std::pow(double(k + 1), -s);
    cdf[std::size_t(k)] = total;
  }
  for (auto& c : cdf) c /= total;
  cdf.back() = 1.0;  // guard against accumulated rounding
  return cdf;
}

int sample(const std::vector<double>& cdf, double u) {
  auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return int(it - cdf.begin());
}

}  // namespace

ReplayReport run_replay(const ReplayConfig& cfg) {
  if (cfg.steps <= 0 || cfg.tiers <= 0 || cfg.clients <= 0)
    throw std::invalid_argument("run_replay: steps/tiers/clients must be > 0");
  if (cfg.tiers > img::kMaxQuantizeTier + 1)
    throw std::invalid_argument("run_replay: tiers exceeds quantization range");

  auto& m = ReplayMetrics::get();
  ReplayReport rep;
  FrameCache cache(cfg.cache);
  // One address space per dataset: anything that changed the pixels would
  // have to change these fields (the synthetic source is pinned; see
  // kFrameSeed above).
  CacheIdentity identity;
  identity.dataset_id = "replay:chaos_frame";
  identity.camera_hash =
      hash64(std::to_string(cfg.width) + "x" + std::to_string(cfg.height));
  identity.tf_hash = hash64("chaos-default-tf");

  std::vector<std::unique_ptr<WanLink>> links;
  links.reserve(std::size_t(cfg.clients));
  for (int i = 0; i < cfg.clients; ++i)
    links.push_back(std::make_unique<WanLink>(cfg.link));

  const std::vector<double> cdf = zipf_cdf(cfg.steps, cfg.zipf_s);
  // Digest recorded at miss time, for byte-verifying later hits.
  std::unordered_map<CacheKey, std::array<std::uint8_t, 32>, CacheKeyHash>
      golden;

  Rng rng(cfg.seed);
  util::Sha256 log;
  FrameEncoder encoder(cfg.width, cfg.height);
  // Per-client delivery latencies, for the report's exact e2e percentiles.
  std::vector<std::vector<double>> client_lat(std::size_t(cfg.clients));
  // Every replay delivery crosses the same uniform link; the excess over
  // this ideal solo crossing is queue wait behind earlier frames.
  const double bw = links[0]->config().bandwidth_bytes_per_s;
  const double prop = links[0]->config().latency_s;
  std::vector<DeliveredFrame> batch;  // every link's poll and drain reuse it
  auto observe_delivery = [&](int client, const DeliveredFrame& d) {
    const double lat = d.delivered_at - d.sent_at;
    client_lat[std::size_t(client)].push_back(lat);
    if (metrics::enabled()) {
      m.e2e_wire.observe(lat);
      m.e2e_queue_wait.observe(
          std::max(0.0, lat - (double(d.bytes) / bw + prop)));
    }
    if (obs::lineage::enabled()) {
      obs::lineage::record_virtual(obs::lineage::Stage::kWire, d.step,
                                   /*epoch=*/0,
                                   obs::lineage::ChannelKind::kClient, client,
                                   d.sent_at, lat);
    }
  };
  for (std::uint64_t i = 0; i < cfg.requests; ++i) {
    const double now = double(i) * cfg.interval_s;
    const int client = int(rng.next_below(std::uint64_t(cfg.clients)));
    const int step = sample(cdf, rng.next_double());
    const int tier = int(rng.next_below(std::uint64_t(cfg.tiers)));
    trace::Span span("replay", "request", step);
    const CacheKey key = content_address(identity, step, tier, FrameKind::kKey);

    const bool timed = metrics::enabled() || obs::lineage::enabled();
    const std::int64_t lookup_t0 = timed ? trace::now_since_epoch_ns() : 0;
    Wire wire = cache.get(key);
    if (obs::lineage::enabled()) {
      obs::lineage::record_wall(
          obs::lineage::Stage::kCacheLookup, step, /*epoch=*/0,
          obs::lineage::ChannelKind::kClient, client,
          double(trace::now_since_epoch_ns() - lookup_t0) * 1e-9);
    }
    bool hit = wire != nullptr;
    if (hit) {
      ++rep.cache_served;
      m.served.add();
      if (cfg.verify) {
        util::Sha256 h;
        h.update(wire->data(), wire->size());
        auto it = golden.find(key);
        if (it == golden.end() || it->second != h.digest())
          ++rep.verify_failures;
      }
    } else {
      // Miss: render the frame and encode a self-contained keyframe — the
      // only kind the cache stores (see stream/cache.hpp).
      const std::int64_t enc_t0 = timed ? trace::now_since_epoch_ns() : 0;
      const img::Image8 frame =
          chaos_frame(cfg.width, cfg.height, kFrameSeed, step);
      wire = make_wire(encoder.encode(step, frame, tier, /*keyframe=*/true));
      if (timed) {
        const double enc_s =
            double(trace::now_since_epoch_ns() - enc_t0) * 1e-9;
        if (metrics::enabled()) m.e2e_encode.observe(enc_s);
        if (obs::lineage::enabled()) {
          obs::lineage::record_wall(obs::lineage::Stage::kEncode, step,
                                    /*epoch=*/0,
                                    obs::lineage::ChannelKind::kClient,
                                    client, enc_s);
        }
      }
      ++rep.renders;
      m.renders.add();
      if (cfg.verify) {
        util::Sha256 h;
        h.update(wire->data(), wire->size());
        golden[key] = h.digest();
      }
      cache.put(key, wire);
    }

    ++rep.requests;
    m.requests.add();
    rep.bytes_served += wire->size();
    put_pod(log, i);
    put_pod(log, client);
    put_pod(log, step);
    put_pod(log, tier);
    put_pod(log, std::uint8_t(hit));
    put_pod(log, std::uint64_t(wire->size()));

    links[std::size_t(client)]->send(now, step, wire);
    if (obs::lineage::enabled()) {
      obs::lineage::record_virtual(obs::lineage::Stage::kEnqueue, step,
                                   /*epoch=*/0,
                                   obs::lineage::ChannelKind::kClient, client,
                                   now);
    }
    for (const auto& d : links[std::size_t(client)]->poll(now, batch)) {
      ++rep.frames_delivered;
      observe_delivery(client, d);
      put_pod(log, d.step);
      put_pod(log, d.delivered_at);
      put_pod(log, std::uint64_t(d.bytes));
    }
  }
  for (std::size_t c = 0; c < links.size(); ++c) {
    for (const auto& d : links[c]->drain(batch)) {
      ++rep.frames_delivered;
      observe_delivery(int(c), d);
      put_pod(log, std::uint64_t(c));
      put_pod(log, d.step);
      put_pod(log, d.delivered_at);
      put_pod(log, std::uint64_t(d.bytes));
    }
  }
  std::vector<double> pooled;
  for (int c = 0; c < cfg.clients; ++c) {
    auto& lat = client_lat[std::size_t(c)];
    std::sort(lat.begin(), lat.end());
    ReplayReport::ClientE2e e;
    e.id = c;
    e.frames = lat.size();
    e.p50_s = percentile_sorted(lat, 50);
    e.p95_s = percentile_sorted(lat, 95);
    rep.client_e2e.push_back(e);
    pooled.insert(pooled.end(), lat.begin(), lat.end());
  }
  std::sort(pooled.begin(), pooled.end());
  rep.e2e_p50_s = percentile_sorted(pooled, 50);
  rep.e2e_p95_s = percentile_sorted(pooled, 95);

  rep.cache = cache.stats();
  rep.hit_rate =
      rep.requests ? double(rep.cache_served) / double(rep.requests) : 0.0;
  // Compulsory-miss expectation: exact when nothing was evicted (every miss
  // is a first touch). Catalog items are (step, tier) pairs with
  // p = zipf(step) / tiers.
  const double r = double(cfg.requests);
  double expected_misses = 0.0;
  double prev = 0.0;
  for (int k = 0; k < cfg.steps; ++k) {
    const double pk = cdf[std::size_t(k)] - prev;
    prev = cdf[std::size_t(k)];
    const double p = pk / double(cfg.tiers);
    expected_misses += double(cfg.tiers) * (1.0 - std::pow(1.0 - p, r));
  }
  rep.expected_hit_rate = r > 0.0 ? 1.0 - expected_misses / r : 0.0;

  const auto d = log.digest();
  rep.digest = util::Sha256::hex(d.data(), d.size());
  return rep;
}

}  // namespace qv::stream
