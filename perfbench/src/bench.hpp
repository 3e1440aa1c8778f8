// Shared pieces of the QuakeViz benchmark: arguments, the metric schema,
// order statistics, process accounting, and file helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Every workload runs in one process with at most this many threads.
inline constexpr int kThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;    // false: end-to-end metrics; true: per-layer metrics
  std::string work_dir;  // scratch space for datasets and frames
};

// What one run reports. `values` is keyed by metric name; print_result()
// emits exactly the schema of the run's mode (see kEndToEnd / kPerLayer)
// and fails loudly when a workload forgot an end-to-end metric.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  // Context printed as one JSON object on the line before the result:
  // sample counts, chosen percentiles, shape checks.
  std::map<std::string, std::string> info;
};

struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

void print_result(const Result& r, bool trace_mode);

// Host and build description; refuses (returns false) for sanitizer
// builds, whose timings mean nothing.
bool fingerprint(std::string* json);

// --- order statistics -------------------------------------------------------
double median(std::vector<double> v);
// Nearest-rank percentile: the value at rank ceil(p n / 100) of n samples.
double percentile(std::vector<double> v, int p);
// Tails are reported at a percentile fixed per workload, with at least ten
// samples above it at the sample count the workload's minimum number of
// passes guarantees. A fixed percentile keeps one definition across runs
// (a faster run would otherwise move to a higher one); samples_beyond()
// states how many lay above it in a run.
std::size_t samples_beyond(std::size_t n, int p);
double ratio(double num, double den);  // 0 when den == 0

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);
double unit_interval(std::uint64_t seed, std::uint64_t salt);  // [0, 1)

// --- process accounting -----------------------------------------------------
// Heap allocations made by the calling thread so far (a counting global
// operator new lives in bench.cpp).
std::uint64_t thread_allocations();
double peak_rss_mb();

// --- info-line values (raw JSON) ------------------------------------------
std::string json_num(double v);
std::string json_list(const std::vector<double>& v);

// --- files ------------------------------------------------------------------
std::string sha256_file(const std::string& path);  // "" if unreadable
void reset_dir(const std::string& dir);

}  // namespace perfbench
