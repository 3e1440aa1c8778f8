// The two pipeline workloads, `movie` and `ingest`: a synthetic-quake
// dataset written in set-up, then repeated core::run_pipeline passes over
// it until the run's time is up. Every frame of every pass is checked
// against a reference run of a configuration documented to be bit-exact
// with the timed one.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "io/dataset.hpp"
#include "metrics/metrics.hpp"
#include "mesh/hex_mesh.hpp"
#include "mesh/linear_octree.hpp"
#include "quake/synthetic.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using qv::WallTimer;
namespace core = qv::core;

constexpr int kTailPercentile = 75;  // interframe_tail_s

struct DatasetSpec {
  int level = 5;     // uniform fine mesh: (2^level + 1)^3 nodes
  int coarsest = 3;  // coarsest level stored next to the fine one
  int steps = 12;
  float t0 = 0.5f;   // quake time of step s: t0 + (phase + s) * dt
  float dt = 0.1f;
};

struct Workload {
  DatasetSpec data;
  int setup_reps = 3;  // set-up runs per run; setup_s is their median
  // Untraced passes every run makes, however long they take; their steady
  // gaps leave at least ten samples above kTailPercentile.
  int min_passes = 3;
  core::PipelineConfig timed;      // what is measured
  core::PipelineConfig reference;  // bit-exact twin the frames must equal
};

// movie: the paper's post-processing run. One input rank (1DIP) feeds two
// single-threaded renderers; 256^2 unlit volume over the 256^2 surface-LIC
// ground, SLIC compositing, PPM frames from the output rank. Render and
// composite dominate the frame; the input rank's fetch and LIC preprocess
// hide behind them. The reference composites with direct-send and renders
// without empty-space skipping, both bit-exact with the timed settings.
Workload movie_workload() {
  Workload w;
  w.data = {5, 3, 12, 0.6f, 0.1f};
  w.setup_reps = 9;  // a small set-up: more runs steady its median
  w.min_passes = 4;  // 4 x 10 steady gaps
  auto& c = w.timed;
  c.strategy = core::IoStrategy::kOneDip;
  c.input_procs = 1;
  c.render_procs = 2;
  c.render_threads = 1;
  c.width = c.height = 256;
  c.render.value_hi = 1.5f;
  c.lic_overlay = true;
  c.lic_resolution = 256;
  c.compositor = core::Compositor::kSlic;
  w.reference = c;
  w.reference.compositor = core::Compositor::kDirectSend;
  w.reference.render.empty_skipping = false;
  return w;
}

// ingest: 2DIP collective-noncontiguous reads (§5.3.1) of the finest level
// of a level-6 dataset by one group of two readers, one renderer at 32^2 —
// the input side is the bottleneck and the renderer waits for blocks. The
// reference fetches the same steps with a 1DIP whole-step read.
Workload ingest_workload() {
  Workload w;
  w.data = {6, 3, 48, 0.6f, 0.025f};
  w.min_passes = 3;  // 3 x 46 steady gaps
  auto& c = w.timed;
  c.strategy = core::IoStrategy::kTwoDipCollective;
  c.input_procs = 2;
  c.groups = 1;
  c.render_procs = 1;
  c.render_threads = 1;
  c.width = c.height = 32;
  c.render.step_scale = 2.0f;
  c.render.value_hi = 1.5f;
  w.reference = c;
  w.reference.strategy = core::IoStrategy::kOneDip;
  w.reference.input_procs = 1;
  return w;
}

double write_dataset(const std::string& dir, const DatasetSpec& d,
                     double phase) {
  reset_dir(dir);
  WallTimer t;
  const qv::Box3 unit{{0, 0, 0}, {1, 1, 1}};
  qv::mesh::HexMesh fine(qv::mesh::LinearOctree::uniform(unit, d.level));
  qv::io::DatasetWriter writer(dir, fine, d.coarsest, 3, d.dt);
  qv::quake::SyntheticQuake quake;
  // Sample a batch of steps on every thread, then append them in order.
  qv::util::ThreadPool pool(kThreads);
  std::vector<std::vector<float>> batch(kThreads);
  for (int s0 = 0; s0 < d.steps; s0 += kThreads) {
    const int n = std::min(kThreads, d.steps - s0);
    pool.parallel_for(std::size_t(n), [&](std::size_t k, int) {
      const double s = double(s0) + double(k);
      batch[k] = quake.sample_nodes(fine, d.t0 + float((phase + s) * double(d.dt)));
    });
    for (int k = 0; k < n; ++k) writer.write_step(batch[std::size_t(k)]);
  }
  writer.finish();
  return t.seconds();
}

// Registry counter deltas between two snapshots.
std::map<std::string, std::uint64_t> counter_delta(
    const qv::metrics::Snapshot& before, const qv::metrics::Snapshot& after) {
  std::map<std::string, std::uint64_t> d;
  for (const auto& [name, v] : after.counters)
    d[name] = v - before.counter_or(name, 0);
  return d;
}

void accumulate(std::map<std::string, std::uint64_t>& into,
                const std::map<std::string, std::uint64_t>& add) {
  for (const auto& [name, v] : add) into[name] += v;
}

double get(const std::map<std::string, std::uint64_t>& m,
           const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0.0 : double(it->second);
}

struct SpanRec {
  int tid = -1;
  std::string cat, name;
  std::int64_t ts = 0, dur = 0, arg = -1;  // ns
};

// Every span of every thread, sorted by (thread, start).
std::vector<SpanRec> spans_of(const std::vector<qv::trace::ThreadTrace>& traces,
                              std::uint64_t* dropped) {
  std::vector<SpanRec> out;
  *dropped = 0;
  for (const auto& t : traces) {
    *dropped += t.dropped;
    for (const auto& e : t.events) {
      if (e.kind != qv::trace::EventKind::kSpan) continue;
      out.push_back({t.tid, e.cat, e.name, e.ts_ns, e.dur_ns, e.arg});
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanRec& a, const SpanRec& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.ts < b.ts;
  });
  return out;
}

// A span's duration minus the part of it covered by other spans of the
// same thread nested inside it.
std::int64_t self_time(const std::vector<SpanRec>& thread_spans,
                       const SpanRec& s) {
  const std::int64_t end = s.ts + s.dur;
  std::int64_t covered = 0, reach = s.ts;
  // thread_spans is sorted by start, so a sweep merges nested children.
  for (const auto& c : thread_spans) {
    if (c.tid != s.tid || &c == &s) continue;
    if (c.ts < s.ts || c.ts + c.dur > end) continue;
    const std::int64_t from = std::max(c.ts, reach);
    const std::int64_t to = c.ts + c.dur;
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return s.dur - covered;
}

std::string frame_path(const std::string& dir, int step) {
  char name[32];
  std::snprintf(name, sizeof(name), "/frame_%04d.ppm", step);
  return dir + name;
}

std::vector<std::string> frame_hashes(const std::string& dir, int steps) {
  std::vector<std::string> sha;
  for (int s = 0; s < steps; ++s) sha.push_back(sha256_file(frame_path(dir, s)));
  return sha;
}

// Steps whose frame file is missing or differs from the reference.
int frame_mismatches(const std::string& dir,
                     const std::vector<std::string>& ref_sha) {
  int bad = 0;
  for (int s = 0; s < int(ref_sha.size()); ++s)
    if (sha256_file(frame_path(dir, s)) != ref_sha[std::size_t(s)]) ++bad;
  return bad;
}

struct Pass {
  double wall_s = 0.0;
  std::int64_t call_ns = 0;  // trace clock at the run_pipeline call
  core::PipelineReport report;
  std::map<std::string, std::uint64_t> counters;
  std::vector<qv::trace::ThreadTrace> traces;
};

Pass run_pass(const core::PipelineConfig& cfg, bool traced) {
  Pass p;
  const auto before = qv::metrics::collect();
  if (traced) {
    qv::trace::set_capacity(1u << 18);
    qv::trace::enable();
  }
  p.call_ns = qv::trace::now_since_epoch_ns();
  WallTimer t;
  p.report = core::run_pipeline(cfg);
  p.wall_s = t.seconds();
  if (traced) {
    qv::trace::disable();
    p.traces = qv::trace::collect();
    qv::trace::reset();
  }
  p.counters = counter_delta(before, qv::metrics::collect());
  return p;
}

// Per-step stage times pooled over the traced passes. Each per-step value is
// the mean over the ranks that ran the stage for that step, so a stage's
// median is "what one rank spends on it per frame".
struct Layers {
  std::vector<double> fetch, preprocess, send, render, composite, wait;
  std::vector<double> imbalance, output, startup, gaps;
  double render_span_s = 0.0;  // summed over renderers
  double read_all_s = 0.0, pread_s = 0.0;
  std::size_t input_rank_steps = 0;
  std::uint64_t traced_samples = 0;
  std::uint64_t dropped_events = 0;
};

// The first gap of a pass still carries pipeline fill; the gaps ending at
// steps kFirstSteadyStep and later are steady, and the per-layer stage
// times are taken over the same steps.
constexpr int kFirstSteadyStep = 2;

std::vector<double> steady_gaps(const std::vector<double>& frame_seconds) {
  std::vector<double> g;
  for (std::size_t i = kFirstSteadyStep; i < frame_seconds.size(); ++i)
    g.push_back(frame_seconds[i] - frame_seconds[i - 1]);
  return g;
}

void analyze(const Pass& p, const core::PipelineConfig& cfg, Layers& L) {
  const int inputs = cfg.total_input_procs();
  const int out_rank = inputs + cfg.render_procs;
  std::uint64_t dropped = 0;
  const auto spans = spans_of(p.traces, &dropped);
  L.dropped_events += dropped;

  using PerStep = std::map<std::int64_t, std::map<int, double>>;
  PerStep fetch, prep, send, render, comp, wait;
  std::vector<SpanRec> out_spans;
  for (const auto& s : spans) {
    const double d = double(s.dur) * 1e-9;
    if (s.tid == out_rank) out_spans.push_back(s);
    if (s.cat == "pipeline" && s.arg >= kFirstSteadyStep) {
      if (s.tid < inputs) {
        if (s.name == "fetch") fetch[s.arg][s.tid] += d;
        if (s.name == "preprocess") prep[s.arg][s.tid] += d;
        if (s.name == "send_blocks") send[s.arg][s.tid] += d;
      } else if (s.tid < out_rank) {
        if (s.name == "render") render[s.arg][s.tid] += d;
        if (s.name == "composite") comp[s.arg][s.tid] += d;
        if (s.name == "wait_blocks") wait[s.arg][s.tid] += d;
      }
    }
    // Per-call and per-sample figures cover every step, like the counters
    // they are divided by.
    if (s.cat == "pipeline" && s.name == "render" && s.tid >= inputs &&
        s.tid < out_rank)
      L.render_span_s += d;
    if (s.tid >= 0 && s.tid < inputs) {
      if (s.cat == "pipeline" && s.name == "fetch") ++L.input_rank_steps;
      if (s.cat == "vmpi" && s.name == "read_all") L.read_all_s += d;
      if (s.cat == "vmpi" && s.name == "pread") L.pread_s += d;
    }
  }
  auto mean_per_step = [](const PerStep& m, std::vector<double>& into) {
    for (const auto& [step, ranks] : m) {
      double sum = 0.0;
      for (const auto& [tid, v] : ranks) sum += v;
      into.push_back(sum / double(ranks.size()));
    }
  };
  mean_per_step(fetch, L.fetch);
  mean_per_step(prep, L.preprocess);
  mean_per_step(send, L.send);
  mean_per_step(render, L.render);
  mean_per_step(comp, L.composite);
  mean_per_step(wait, L.wait);
  for (const auto& [step, ranks] : render) {
    double sum = 0.0, mx = 0.0;
    for (const auto& [tid, v] : ranks) {
      sum += v;
      mx = std::max(mx, v);
    }
    L.imbalance.push_back(ratio(mx, sum / double(ranks.size())));
  }
  bool first = true;
  for (const auto& s : out_spans) {
    if (s.cat != "pipeline" || s.name != "frame") continue;
    if (first) L.startup.push_back(double(s.ts + s.dur - p.call_ns) * 1e-9);
    first = false;
    if (s.arg >= kFirstSteadyStep)
      L.output.push_back(double(self_time(out_spans, s)) * 1e-9);
  }
  L.traced_samples += std::uint64_t(get(p.counters, "render.samples"));
}



Result run_workload(const Args& args, Workload w) {
  Result r;
  const std::string ds = args.work_dir + "/dataset";
  const std::string ref_dir = args.work_dir + "/reference";
  const std::string pass_dir = args.work_dir + "/frames";
  // The seed shifts the quake's time phase by up to a quarter step: new
  // data on every seed, the same wavefront stage and so the same shape.
  const double phase = 0.25 * unit_interval(args.seed, 1);

  std::vector<double> setups;
  for (int i = 0; i < w.setup_reps; ++i)
    setups.push_back(write_dataset(ds, w.data, phase));
  r.values["setup_s"] = median(setups);

  w.timed.dataset_dir = w.reference.dataset_dir = ds;
  w.timed.output_dir = pass_dir;
  w.reference.output_dir = ref_dir;

  // Reference pass: untimed, and the warm-up (page cache, lazy statics).
  reset_dir(ref_dir);
  WallTimer ref_timer;
  core::run_pipeline(w.reference);
  r.info["reference_s"] = json_num(ref_timer.seconds());
  const auto ref_sha = frame_hashes(ref_dir, w.data.steps);
  if (std::count(ref_sha.begin(), ref_sha.end(), "") > 0)
    throw std::runtime_error("reference run wrote no frames");

  if (args.trace) {
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      WallTimer mt;
      qv::io::DatasetReader reader(ds);
      for (int l = reader.meta().coarsest_level; l <= reader.meta().finest_level;
           ++l)
        reader.level_mesh(l);
      t.push_back(mt.seconds());
    }
    r.values["mesh.level_meshes_s"] = median(t);
  }

  std::vector<double> gaps, first_frames;
  std::map<std::string, std::uint64_t> counters;
  Layers L;
  std::uint64_t frames = 0;
  int passes = 0, traced_passes = 0;
  WallTimer clock;
  while (passes - traced_passes < w.min_passes || clock.seconds() < args.seconds) {
    const bool traced = args.trace && passes % 2 == 1;
    reset_dir(pass_dir);
    Pass p = run_pass(w.timed, traced);
    ++passes;
    if (traced) ++traced_passes;
    const auto& fs = p.report.frame_seconds;
    // Frames must be bit-equal to the reference, step by step.
    r.attempted += ref_sha.size();
    r.failed += std::uint64_t(frame_mismatches(pass_dir, ref_sha));
    if (fs.empty()) continue;
    frames += fs.size();
    accumulate(counters, p.counters);
    const double first = p.wall_s - (fs.back() - fs.front());
    const auto g = steady_gaps(fs);
    if (traced) {
      L.gaps.insert(L.gaps.end(), g.begin(), g.end());
      analyze(p, w.timed, L);
    } else {
      gaps.insert(gaps.end(), g.begin(), g.end());
      first_frames.push_back(first);
    }
  }
  std::filesystem::remove_all(pass_dir);

  r.values["interframe_s"] = median(gaps);
  r.values["interframe_tail_s"] = percentile(gaps, kTailPercentile);
  r.values["first_frame_s"] = median(first_frames);
  r.values["peak_rss_mb"] = peak_rss_mb();
  r.info["passes"] = std::to_string(passes);
  r.info["interframe_samples"] = std::to_string(gaps.size());
  r.info["interframe_tail_percentile"] = std::to_string(kTailPercentile);
  r.info["interframe_tail_beyond"] =
      std::to_string(samples_beyond(gaps.size(), kTailPercentile));
  r.info["first_frame_samples"] = std::to_string(first_frames.size());
  r.info["setup_samples"] = std::to_string(setups.size());
  r.info["setup_runs_s"] = json_list(setups);

  const double fr = double(frames);
  auto& v = r.values;
  v["failed_frac"] = ratio(double(r.failed), double(r.attempted));
  v["io.useful_frac"] =
      ratio(get(counters, "io.useful_bytes"), get(counters, "io.disk_bytes"));
  v["io.exchanged_bytes_per_step"] = get(counters, "io.exchanged_bytes") / fr;
  v["vmpi.send_bytes_per_frame"] = get(counters, "vmpi.send.bytes") / fr;
  v["vmpi.messages_per_frame"] = get(counters, "vmpi.send.calls") / fr;
  v["render.samples_per_frame"] = get(counters, "render.samples") / fr;
  v["render.skip_frac"] =
      ratio(get(counters, "render.skipped_samples"),
            get(counters, "render.samples") +
                get(counters, "render.skipped_samples"));
  v["compositing.bytes_per_frame"] =
      get(counters, "compositing.bytes_sent") / fr;
  v["compositing.messages_per_frame"] =
      get(counters, "compositing.messages") / fr;

  if (args.trace) {
    const double inter = median(L.gaps);
    const double input_chain =
        median(L.fetch) + median(L.preprocess) + median(L.send);
    const double render_chain = median(L.render) + median(L.composite);
    const double blocking = std::max(input_chain, render_chain);
    v["core.residual_s"] = inter - blocking;
    v["core.residual_frac"] = ratio(inter - blocking, inter);
    v["core.output_s"] = median(L.output);
    v["core.startup_s"] = median(L.startup);
    v["io.fetch_s"] = median(L.fetch);
    v["io.preprocess_s"] = median(L.preprocess);
    v["io.send_s"] = median(L.send);
    const double rank_steps = double(L.input_rank_steps);
    v["vmpi.read_all_s"] = ratio(L.read_all_s, rank_steps);
    v["vmpi.pread_s"] = ratio(L.pread_s, rank_steps);
    v["render.busy_s"] = median(L.render);
    v["render.ns_per_sample"] =
        ratio(L.render_span_s * 1e9, double(L.traced_samples));
    v["render.imbalance"] = median(L.imbalance);
    v["render.wait_s"] = median(L.wait);
    v["compositing.busy_s"] = median(L.composite);
    v["trace_overhead_frac"] = ratio(inter, median(gaps));
    r.info["traced_passes"] = std::to_string(traced_passes);
    r.info["traced_interframe_s"] = json_num(inter);
    r.info["blocking_chain"] =
        input_chain > render_chain ? "\"input\"" : "\"render+composite\"";
    r.info["dropped_trace_events"] = std::to_string(L.dropped_events);
    // Workload shape: which layer sets the frame time.
    const double share = ratio(v["render.busy_s"] + v["compositing.busy_s"], inter);
    r.info["render_composite_share"] = json_num(share);
    r.info["render_below_interframe"] =
        v["render.busy_s"] < inter ? "true" : "false";
  }
  r.correct = r.failed == 0 && r.attempted > 0;
  return r;
}

}  // namespace

Result run_movie(const Args& args) { return run_workload(args, movie_workload()); }
Result run_ingest(const Args& args) {
  return run_workload(args, ingest_workload());
}

// The frame check must catch a wrong frame: a tiny movie-shaped run must
// match its reference, then one frame with a flipped byte and one deleted
// frame must both be counted.
bool selftest_frames(const std::string& work_dir) {
  Workload w = movie_workload();
  w.data = {3, 2, 3, 0.6f, 0.1f};
  w.timed.width = w.timed.height = w.reference.width = w.reference.height = 64;
  w.timed.lic_resolution = w.reference.lic_resolution = 64;
  const std::string ds = work_dir + "/dataset";
  write_dataset(ds, w.data, 0.25);
  w.reference.dataset_dir = w.timed.dataset_dir = ds;
  w.reference.output_dir = work_dir + "/reference";
  w.timed.output_dir = work_dir + "/frames";
  reset_dir(w.reference.output_dir);
  reset_dir(w.timed.output_dir);
  core::run_pipeline(w.reference);
  core::run_pipeline(w.timed);
  const auto ref_sha = frame_hashes(w.reference.output_dir, w.data.steps);
  const int clean = frame_mismatches(w.timed.output_dir, ref_sha);

  const std::string victim = frame_path(w.timed.output_dir, 1);
  std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(100);
  char c = 0;
  f.get(c);
  f.seekp(100);
  f.put(char(c ^ 1));
  f.close();
  std::filesystem::remove(frame_path(w.timed.output_dir, 2));
  const int broken = frame_mismatches(w.timed.output_dir, ref_sha);
  std::printf("selftest frames: %d mismatches on the clean run (want 0), %d "
              "after corrupting one frame and deleting another (want 2)\n",
              clean, broken);
  return clean == 0 && broken == 2;
}

}  // namespace perfbench
