#include "stream/cache.hpp"

#include <cstring>
#include <utility>

#include "metrics/metrics.hpp"
#include "trace/trace.hpp"
#include "util/sha256.hpp"

namespace qv::stream {

namespace {

// Registry-backed mirrors of CacheStats, so cache behavior shows up in the
// qv-run-report without the caller threading the cache object around.
struct CacheMetrics {
  metrics::Counter& hits = metrics::counter("stream.cache.hits");
  metrics::Counter& misses = metrics::counter("stream.cache.misses");
  metrics::Counter& evictions = metrics::counter("stream.cache.evictions");
  metrics::Counter& insertions = metrics::counter("stream.cache.insertions");
  metrics::Counter& oversize =
      metrics::counter("stream.cache.oversize_rejects");
  metrics::Gauge& bytes = metrics::gauge("stream.cache.bytes");
  metrics::Gauge& entries = metrics::gauge("stream.cache.entries");
  static CacheMetrics& get() {
    static CacheMetrics m;
    return m;
  }
};

void put_u64(util::Sha256& h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = std::uint8_t(v >> (8 * i));
  h.update(b, sizeof(b));
}

}  // namespace

std::uint64_t hash64(const std::string& descriptor) {
  util::Sha256 h;
  h.update(descriptor.data(), descriptor.size());
  const auto d = h.digest();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(d[std::size_t(i)]) << (8 * i);
  return v;
}

CacheKey content_address(const CacheIdentity& id, int step, int tier,
                         FrameKind kind) {
  util::Sha256 h;
  // Length-prefix the one variable-width field so "ab"+"c" can never alias
  // "a"+"bc" across field boundaries; everything else is fixed-width.
  put_u64(h, id.dataset_id.size());
  h.update(id.dataset_id.data(), id.dataset_id.size());
  put_u64(h, id.camera_hash);
  put_u64(h, id.tf_hash);
  put_u64(h, std::uint64_t(std::int64_t(step)));
  put_u64(h, std::uint64_t(std::int64_t(tier)));
  put_u64(h, std::uint64_t(kind));
  CacheKey k;
  k.addr = h.digest();
  return k;
}

FrameCache::FrameCache(CacheConfig cfg) : cfg_(cfg) {}

Wire FrameCache::get(const CacheKey& key) {
  trace::Span span("cache", "get");
  // The lookup is also an e2e delivery stage: its wall cost is part of what
  // a client waits for, so it feeds the stream.e2e.* waterfall directly.
  const bool timed = metrics::enabled();
  const std::int64_t t0 = timed ? trace::now_since_epoch_ns() : 0;
  Wire out;
  {
    auto& m = CacheMetrics::get();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      m.misses.add();
    } else {
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
      ++stats_.hits;
      m.hits.add();
      out = it->second->wire;
    }
  }
  if (timed) {
    static auto& h = metrics::histogram("stream.e2e.cache_lookup");
    h.observe(double(trace::now_since_epoch_ns() - t0) * 1e-9);
  }
  return out;
}

void FrameCache::evict_until_fits(std::size_t incoming) {
  auto& m = CacheMetrics::get();
  while (!lru_.empty() && stats_.bytes + incoming > cfg_.capacity_bytes) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.wire->size();
    map_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    m.evictions.add();
  }
}

void FrameCache::put(const CacheKey& key, Wire wire) {
  if (!wire) return;
  trace::Span span("cache", "put");
  auto& m = CacheMetrics::get();
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = map_.find(key); it != map_.end()) {
    // Already resident: same address means same bytes by contract, so just
    // refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (wire->size() > cfg_.capacity_bytes) {
    ++stats_.oversize_rejects;
    m.oversize.add();
    return;
  }
  evict_until_fits(wire->size());
  stats_.bytes += wire->size();
  lru_.push_front(Entry{key, std::move(wire)});
  map_.emplace(key, lru_.begin());
  ++stats_.insertions;
  m.insertions.add();
  stats_.entries = lru_.size();
  m.bytes.set(double(stats_.bytes));
  m.entries.set(double(stats_.entries));
}

CacheStats FrameCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

std::size_t FrameCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.bytes;
}

std::size_t FrameCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace qv::stream
