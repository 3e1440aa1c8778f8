#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <stdexcept>
#include <thread>

#include "util/sha256.hpp"

// --- counting allocator -----------------------------------------------------
// Every global operator new in this process goes through here, so the serve
// workload can count the allocations one DeliveryServer::submit makes. The
// count is thread-local: no shared cache line in the pipeline's rank
// threads, and exact for the single-threaded serve loop.
namespace {
thread_local std::uint64_t t_allocations = 0;
}

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

// Every workload reports every metric of the run's mode. A metric a
// workload does not exercise reads 0 in the per-layer set (the idle layer);
// the end-to-end set holds only metrics every workload defines.
const std::vector<MetricDef> kEndToEnd = {
    {"interframe_s", "s"},
    {"interframe_tail_s", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.residual_s", "s"},
    {"core.residual_frac", "ratio"},
    {"core.output_s", "s"},
    {"core.startup_s", "s"},
    {"first_frame_s", "s"},
    {"mesh.level_meshes_s", "s"},
    {"io.fetch_s", "s"},
    {"io.preprocess_s", "s"},
    {"io.send_s", "s"},
    {"io.useful_frac", "ratio"},
    {"io.exchanged_bytes_per_step", "bytes"},
    {"vmpi.read_all_s", "s"},
    {"vmpi.pread_s", "s"},
    {"vmpi.send_bytes_per_frame", "bytes"},
    {"vmpi.messages_per_frame", "count"},
    {"render.busy_s", "s"},
    {"render.ns_per_sample", "ns"},
    {"render.samples_per_frame", "count"},
    {"render.skip_frac", "ratio"},
    {"render.imbalance", "ratio"},
    {"render.wait_s", "s"},
    {"compositing.busy_s", "s"},
    {"compositing.bytes_per_frame", "bytes"},
    {"compositing.messages_per_frame", "count"},
    {"stream.submit_ms", "ms"},
    {"stream.encodes_per_frame", "count"},
    {"stream.reuse_ratio", "ratio"},
    {"stream.egress_bytes_per_frame", "bytes"},
    {"stream.allocs_per_frame", "count"},
    {"stream.keyframes_per_edit", "count"},
    {"stream.peak_queue_bytes", "bytes"},
    {"serve_frame_ms", "ms"},
    {"serve_frame_tail_ms", "ms"},
    {"delivery_p95_s", "s"},
    {"fresh_p95_s", "s"},
    {"drop_frac", "ratio"},
    {"failed_frac", "ratio"},
    {"trace_overhead_frac", "ratio"},
};

void print_result(const Result& r, bool trace_mode) {
  std::string info = "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    info += (first ? "\"" : ", \"") + k + "\": " + v;
    first = false;
  }
  info += "}}";
  std::printf("%s\n", info.c_str());

  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  first = true;
  for (const auto& def : trace_mode ? kPerLayer : kEndToEnd) {
    auto it = r.values.find(def.name);
    if (it == r.values.end() && !trace_mode)
      throw std::logic_error(std::string("workload did not measure ") +
                             def.name);
    double v = it == r.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v))
      throw std::logic_error(std::string("non-finite value for ") + def.name);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, v, def.unit);
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool fingerprint(std::string* json) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string quoted;
  for (char c : cpu)
    if (c != '"' && c != '\\') quoted += c;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  *json = "{\"cpu\": \"" + quoted + "\", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"compiler\": \"" + PERFBENCH_COMPILER +
          "\", \"build_type\": \"" + build_type + "\", \"qv_sanitize\": \"" +
          sanitize + "\"}";
  bool sanitized = !sanitize.empty();
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  return !sanitized &&
         (build_type == "Release" || build_type == "RelWithDebInfo");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + std::ptrdiff_t(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = (v.size() * std::size_t(p) + 99) / 100;
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t samples_beyond(std::size_t n, int p) {
  return n - (n * std::size_t(p) + 99) / 100;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit_interval(std::uint64_t seed, std::uint64_t salt) {
  return double(mix(seed, salt) >> 11) * 0x1.0p-53;
}

std::uint64_t thread_allocations() { return t_allocations; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string json_num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_num(v[i]);
  return out + "]";
}

std::string sha256_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  qv::util::Sha256 h;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    if (in.gcount() > 0) h.update(buf, std::size_t(in.gcount()));
  }
  const auto d = h.digest();
  static const char* hex = "0123456789abcdef";
  std::string s;
  for (auto b : d) {
    s += hex[b >> 4];
    s += hex[b & 15];
  }
  return s;
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace perfbench
