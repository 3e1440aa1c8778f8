// qv_perfbench: one run of one QuakeViz benchmark workload.
//
//   qv_perfbench --workload movie|ingest|serve --seed N --seconds S
//                --trace 0|1 --work DIR
//   qv_perfbench --selftest --work DIR
//
// Prints the host fingerprint, an info line, and as the last line the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set (tracing off); with
// --trace 1 the per-layer set, from passes alternating untraced and traced.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "util/parse.hpp"

namespace perfbench {
Result run_movie(const Args& args);
Result run_ingest(const Args& args);
Result run_serve(const Args& args);
bool selftest_frames(const std::string& work_dir);
bool selftest_serve();
}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qv_perfbench --workload movie|ingest|serve --seed N "
               "--seconds S --trace 0|1 --work DIR\n"
               "       qv_perfbench --selftest --work DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool selftest = false;
  std::string trace_flag = "0", seed_flag = "1", seconds_flag = "10";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string& into) {
      if (i + 1 >= argc) return false;
      into = argv[++i];
      return true;
    };
    bool ok = true;
    if (a == "--selftest") selftest = true;
    else if (a == "--workload") ok = value(args.workload);
    else if (a == "--seed") ok = value(seed_flag);
    else if (a == "--seconds") ok = value(seconds_flag);
    else if (a == "--trace") ok = value(trace_flag);
    else if (a == "--work") ok = value(args.work_dir);
    else ok = false;
    if (!ok) return usage();
  }
  const auto seed = qv::util::parse_int(seed_flag);
  const auto seconds = qv::util::parse_real(seconds_flag);
  if (!seed || *seed < 0 || !seconds || *seconds <= 0.0 || args.work_dir.empty() ||
      (trace_flag != "0" && trace_flag != "1"))
    return usage();
  args.seed = std::uint64_t(*seed);
  args.seconds = *seconds;
  args.trace = trace_flag == "1";

  std::string host;
  const bool timable = fingerprint(&host);
  std::printf("{\"fingerprint\": %s}\n", host.c_str());
  try {
    std::filesystem::create_directories(args.work_dir);
    if (selftest) {
      const bool frames = selftest_frames(args.work_dir);
      const bool serve = selftest_serve();
      std::printf("selftest: %s\n", frames && serve ? "PASS" : "FAIL");
      return frames && serve ? 0 : 1;
    }
    if (!timable) {
      std::fprintf(stderr, "qv_perfbench: refusing to time a sanitizer or "
                           "unoptimized build\n");
      return 1;
    }
    Result r;
    if (args.workload == "movie") r = run_movie(args);
    else if (args.workload == "ingest") r = run_ingest(args);
    else if (args.workload == "serve") r = run_serve(args);
    else return usage();
    print_result(r, args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qv_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
