// The `serve` workload: 512 simulated viewers watching a steered stream.
//
// Set-up renders every frame of a seeded scripted edit trace once
// (SteerScene::render). The timed section renders nothing: it replays those
// frames through a DeliveryServer in virtual time — join, QVCT edits posted
// through the steering inbox's wire boundary, apply_view_change, submit,
// poll, finish — so only the delivery layer (stream) does work.
//
// Correctness: one untimed pass decodes every delivery at every client and
// compares its pixels with the tier-quantized submitted frame; every timed
// pass must then reproduce that pass's delivery-log digest exactly.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "img/delta.hpp"
#include "metrics/metrics.hpp"
#include "stream/control.hpp"
#include "stream/server.hpp"
#include "stream/steer.hpp"
#include "trace/trace.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using qv::WallTimer;
namespace stream = qv::stream;

constexpr int kFrames = 240;
constexpr int kWidth = 128;
constexpr int kHeight = 96;
constexpr int kSceneLevel = 3;
constexpr int kEdits = 40;  // about one edit per six frames
constexpr int kClients = 512;
constexpr double kInterval = 0.05;  // virtual seconds between submits
constexpr int kSetupReps = 5;  // setup_s is the median of these
// Untraced passes every run makes, and the tail percentile: the highest
// that leaves ten of the 240 per-frame medians above it (12 lie above p95).
constexpr int kMinPasses = 5;
constexpr int kTailPercentile = 95;

// The pre-rendered stream: frame f, the QVCT wires posted at its boundary,
// and the view epoch it was rendered under.
struct Script {
  std::vector<std::vector<std::vector<std::uint8_t>>> wires;
  std::vector<qv::img::Image8> frames;
  std::vector<std::uint32_t> epochs;
};

Script make_script(std::uint64_t seed) {
  Script s;
  s.wires.resize(kFrames);
  for (const auto& ev : stream::make_steer_trace(seed, kFrames, kEdits))
    if (ev.step >= 0 && ev.step < kFrames)
      s.wires[std::size_t(ev.step)].push_back(stream::encode_steer(ev.msg));
  stream::SteerLoopConfig cfg;
  cfg.width = kWidth;
  cfg.height = kHeight;
  cfg.level = kSceneLevel;
  cfg.seed = seed;
  // Fold the edits exactly as the server's inbox will hand them out.
  stream::SteerInbox inbox;
  stream::SteeringState view;
  std::vector<stream::SteeringState> views;
  for (int f = 0; f < kFrames; ++f) {
    for (const auto& w : s.wires[std::size_t(f)]) inbox.post_wire(w);
    for (const auto& m : inbox.drain()) view.apply(m);
    s.epochs.push_back(view.epoch);
    views.push_back(view);
  }
  // A scene caches the field of its last step, so each thread renders
  // with a scene of its own.
  qv::util::ThreadPool pool(kThreads);
  std::vector<std::unique_ptr<stream::SteerScene>> scenes;
  for (int t = 0; t < kThreads; ++t)
    scenes.push_back(std::make_unique<stream::SteerScene>(cfg));
  s.frames.resize(kFrames, qv::img::Image8(kWidth, kHeight));
  pool.parallel_for(kFrames, [&](std::size_t f, int worker) {
    s.frames[f] = scenes[std::size_t(worker)]->render(views[f], int(f));
  });
  return s;
}

stream::ServeFleetConfig fleet_config(std::uint64_t seed) {
  stream::ServeFleetConfig fleet;
  fleet.enabled = true;
  fleet.count = kClients;
  fleet.bandwidth_hi = 8e6;
  fleet.bandwidth_lo = 0.5e6;
  fleet.outage_seed = mix(seed, 2) | 1;  // nonzero: every third client flaps
  return fleet;
}

// What a correct decode of `step` at `tier` reconstructs, built on demand.
class Expected {
 public:
  explicit Expected(const Script& s) : script_(s) {}
  const std::vector<std::uint8_t>& at(int step, int tier) {
    auto [it, fresh] = cache_.try_emplace({step, tier});
    if (fresh) {
      const auto& im = script_.frames[std::size_t(step)];
      const std::size_t n = std::size_t(im.width()) * im.height() * 3;
      std::vector<std::uint8_t> planes(n);
      qv::img::deinterleave_rgb({im.data(), n}, planes);
      qv::img::quantize_tier(planes, tier);
      it->second.resize(n);
      qv::img::interleave_rgb(planes, it->second);
    }
    return it->second;
  }

 private:
  const Script& script_;
  std::map<std::pair<int, int>, std::vector<std::uint8_t>> cache_;
};

// A delivered frame is right when it names a submitted step, echoes the
// epoch that step was rendered under, and decodes to exactly the
// tier-quantized submitted pixels.
bool delivery_ok(const stream::ServerCapture::Frame& f, const Script& s,
                 Expected& expected) {
  if (f.step < 0 || f.step >= kFrames) return false;
  if (f.epoch != s.epochs[std::size_t(f.step)]) return false;
  if (f.tier < 0 || f.tier > qv::img::kMaxQuantizeTier) return false;
  const auto& want = expected.at(f.step, f.tier);
  return f.image.width() == kWidth && f.image.height() == kHeight &&
         std::memcmp(f.image.data(), want.data(), want.size()) == 0;
}

template <class T>
void put(qv::util::Sha256& h, const T& v) {
  h.update(&v, sizeof(v));
}

// The run as every client experienced it (same fields as the chaos
// harness's digest, plus the epoch echo and delta base).
std::string delivery_digest(const stream::ServerReport& rep) {
  qv::util::Sha256 h;
  for (const auto& c : rep.clients) {
    put(h, std::int32_t(c.id));
    put(h, std::uint8_t(c.evicted));
    put(h, c.frames_sent);
    put(h, c.frames_dropped);
    put(h, c.keyframes_sent);
    put(h, std::uint64_t(c.deliveries.size()));
    for (const auto& d : c.deliveries) {
      put(h, std::int32_t(d.step));
      put(h, std::int32_t(d.tier));
      put(h, std::uint8_t(d.keyframe));
      put(h, d.epoch);
      put(h, d.base_step);
      put(h, d.bytes);
      std::uint64_t bits;
      std::memcpy(&bits, &d.latency_s, sizeof(bits));
      put(h, bits);
    }
  }
  const auto d = h.digest();
  return qv::util::Sha256::hex(d.data(), d.size());
}

struct PassStats {
  std::vector<double> frame_s;   // one loop iteration: edits + submit + poll
  std::vector<double> submit_s;  // DeliveryServer::submit alone
  double first_frame_s = 0.0;    // server start, joins, first frame
  std::uint64_t submit_allocs = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t post_edit_keyframes = 0;
  std::uint64_t render_rays = 0;  // must stay 0: no rendering here
  std::vector<std::pair<std::uint32_t, double>> edits;  // (request id, post time)
  bool epochs_ok = true;
  std::uint64_t checked = 0, bad = 0;  // verified deliveries
  stream::ServerReport report;
  std::string digest;
  std::uint64_t deliveries = 0;
};

PassStats run_pass(const Script& s, const stream::ServeFleetConfig& fleet,
                   Expected* verify) {
  PassStats ps;
  stream::ServerConfig scfg = fleet.server;
  stream::ServerCapture capture;
  scfg.verify_clients = verify != nullptr;
  scfg.capture = verify ? &capture : nullptr;
  auto check = [&] {
    if (!verify) return;
    for (const auto& f : capture.frames) {
      ++ps.checked;
      if (!delivery_ok(f, s, *verify)) ++ps.bad;
    }
    capture.frames.clear();
  };
  const auto links = stream::make_fleet(fleet);
  auto& rays = qv::metrics::counter("render.rays");
  auto& keyframes = qv::metrics::counter("stream.server.keyframes");
  const std::uint64_t rays0 = rays.value();

  WallTimer start;
  stream::DeliveryServer server(scfg, kWidth, kHeight);
  for (const auto& l : links) server.join(0.0, l);
  stream::SteeringState view;
  for (int f = 0; f < kFrames; ++f) {
    const double vnow = f * kInterval;
    WallTimer ft;
    for (const auto& w : s.wires[std::size_t(f)])
      if (auto id = server.steer_inbox().post_wire(w)) ps.edits.push_back({*id, vnow});
    const auto edits = server.steer_inbox().drain();
    if (!edits.empty()) {
      for (const auto& m : edits) view.apply(m);
      server.apply_view_change(view.epoch);
      ++ps.view_changes;
    }
    if (view.epoch != s.epochs[std::size_t(f)]) ps.epochs_ok = false;
    const std::uint64_t a0 = thread_allocations();
    const std::uint64_t k0 = keyframes.value();
    WallTimer st;
    server.submit(vnow, f, s.frames[std::size_t(f)]);
    ps.submit_s.push_back(st.seconds());
    ps.submit_allocs += thread_allocations() - a0;
    if (!edits.empty()) ps.post_edit_keyframes += keyframes.value() - k0;
    check();
    server.poll(vnow + 0.5 * kInterval);
    check();
    ps.frame_s.push_back(ft.seconds());
    if (f == 0) ps.first_frame_s = start.seconds();
  }
  ps.report = server.finish();
  check();
  ps.render_rays = rays.value() - rays0;
  ps.digest = delivery_digest(ps.report);
  for (const auto& c : ps.report.clients) ps.deliveries += c.deliveries.size();
  return ps;
}

// Virtual time from an edit's post to the first delivered frame whose epoch
// covers it, per (client, edit). Edits a client never saw fresh (evicted,
// or every later frame dropped or undelivered) are counted in *missed.
std::vector<double> fresh_latencies(const PassStats& ps, std::size_t* missed) {
  std::vector<double> out;
  *missed = 0;
  for (const auto& c : ps.report.clients) {
    std::size_t e = 0;
    for (const auto& d : c.deliveries) {
      const double arrive = d.step * kInterval + d.latency_s;
      while (e < ps.edits.size() && d.epoch >= ps.edits[e].first) {
        out.push_back(arrive - ps.edits[e].second);
        ++e;
      }
    }
    *missed += ps.edits.size() - e;
  }
  return out;
}

// Each frame's median time over the passes, in frame order. `pooled` holds
// whole passes back to back. A pass replays the same frames, so frame f does
// the same work in every pass: the median over passes keeps that work and
// drops the passes in which the host stalled this one frame. Pooled order
// statistics counted those stalls, and they moved the tail by a quarter
// between runs on a shared host.
std::vector<double> per_frame_medians(const std::vector<double>& pooled) {
  const std::size_t passes = pooled.size() / kFrames;
  std::vector<double> out(kFrames), column(passes);
  for (std::size_t f = 0; f < kFrames; ++f) {
    for (std::size_t p = 0; p < passes; ++p) column[p] = pooled[p * kFrames + f];
    out[f] = median(column);
  }
  return out;
}

}  // namespace

Result run_serve(const Args& args) {
  Result r;
  std::vector<double> setups;
  Script script;
  for (int i = 0; i < kSetupReps; ++i) {
    WallTimer t;
    script = make_script(args.seed);
    setups.push_back(t.seconds());
  }
  r.values["setup_s"] = median(setups);
  const auto fleet = fleet_config(args.seed);

  // Verification pass: untimed, outside set-up, and the warm-up.
  Expected expected(script);
  WallTimer vt;
  const PassStats ref = run_pass(script, fleet, &expected);
  r.info["verify_pass_s"] = json_num(vt.seconds());
  r.attempted += ref.checked;
  r.failed += ref.bad;
  bool ok = ref.epochs_ok && ref.report.decode_failures == 0 &&
            ref.checked == ref.deliveries && ref.render_rays == 0;
  for (const auto& c : ref.report.clients) ok = ok && c.rejoin_keyframe_ok;

  std::vector<double> frame_s, submit_s, first, traced_frame_s, traced_submit_s;
  std::uint64_t allocs = 0, untraced_frames = 0, timed_rays = 0;
  int passes = 0, traced_passes = 0;
  WallTimer clock;
  while (passes - traced_passes < kMinPasses || clock.seconds() < args.seconds) {
    const bool traced = args.trace && passes % 2 == 1;
    if (traced) {
      qv::trace::set_capacity(1u << 18);
      qv::trace::enable();
    }
    PassStats ps = run_pass(script, fleet, nullptr);
    if (traced) {
      qv::trace::disable();
      qv::trace::reset();
    }
    ++passes;
    if (traced) ++traced_passes;
    timed_rays += ps.render_rays;
    r.attempted += ps.deliveries;
    if (ps.digest != ref.digest || !ps.epochs_ok) r.failed += ps.deliveries;
    if (traced) {
      traced_frame_s.insert(traced_frame_s.end(), ps.frame_s.begin(), ps.frame_s.end());
      traced_submit_s.insert(traced_submit_s.end(), ps.submit_s.begin(), ps.submit_s.end());
    } else {
      frame_s.insert(frame_s.end(), ps.frame_s.begin(), ps.frame_s.end());
      submit_s.insert(submit_s.end(), ps.submit_s.begin(), ps.submit_s.end());
      first.push_back(ps.first_frame_s);
      allocs += ps.submit_allocs;
      untraced_frames += ps.submit_s.size();
    }
  }

  const auto frame_med = per_frame_medians(frame_s);
  const auto submit_med = per_frame_medians(submit_s);
  auto& v = r.values;
  v["interframe_s"] = median(frame_med);
  v["interframe_tail_s"] = percentile(frame_med, kTailPercentile);
  v["first_frame_s"] = median(first);
  v["peak_rss_mb"] = peak_rss_mb();
  r.info["passes"] = std::to_string(passes);
  r.info["interframe_samples"] = std::to_string(frame_s.size());
  r.info["interframe_tail_percentile"] = std::to_string(kTailPercentile);
  r.info["interframe_tail_beyond"] =
      std::to_string(samples_beyond(frame_med.size(), kTailPercentile));
  r.info["first_frame_samples"] = std::to_string(first.size());
  r.info["setup_samples"] = std::to_string(setups.size());
  r.info["setup_runs_s"] = json_list(setups);
  r.info["timed_render_rays"] = std::to_string(timed_rays);
  r.info["digest"] = "\"" + ref.digest + "\"";

  const auto& rep = ref.report;
  std::vector<double> lat;
  for (const auto& c : rep.clients)
    for (const auto& d : c.deliveries) lat.push_back(d.latency_s);
  std::size_t missed = 0;
  const auto fresh = fresh_latencies(ref, &missed);
  const double submitted = double(rep.frames_submitted);
  v["serve_frame_ms"] = median(submit_med) * 1e3;
  v["serve_frame_tail_ms"] = percentile(submit_med, kTailPercentile) * 1e3;
  v["delivery_p95_s"] = percentile(lat, 95);
  v["fresh_p95_s"] = percentile(fresh, 95);
  v["drop_frac"] = ratio(double(rep.frames_dropped),
                         double(rep.frames_sent + rep.frames_dropped));
  v["failed_frac"] = ratio(double(r.failed), double(r.attempted));
  v["stream.submit_ms"] = median(per_frame_medians(traced_submit_s)) * 1e3;
  v["stream.encodes_per_frame"] = ratio(double(rep.encodes), submitted);
  v["stream.reuse_ratio"] = ratio(double(rep.encode_reuses), double(rep.encodes));
  v["stream.egress_bytes_per_frame"] = ratio(double(rep.bytes_out), submitted);
  v["stream.allocs_per_frame"] = ratio(double(allocs), double(untraced_frames));
  v["stream.keyframes_per_edit"] =
      ratio(double(ref.post_edit_keyframes), double(ref.view_changes));
  v["stream.peak_queue_bytes"] = double(rep.peak_total_queue_bytes);
  v["trace_overhead_frac"] =
      ratio(median(per_frame_medians(traced_frame_s)), v["interframe_s"]);
  r.info["deliveries"] = std::to_string(ref.deliveries);
  r.info["egress_bytes"] = std::to_string(rep.bytes_out);
  r.info["fresh_samples"] = std::to_string(fresh.size());
  r.info["fresh_missed"] = std::to_string(missed);
  r.info["evictions"] = std::to_string(rep.evictions);
  if (args.trace) r.info["traced_passes"] = std::to_string(traced_passes);
  // Workload shape: the timed section must not render.
  r.info["no_render_in_timed_section"] = timed_rays == 0 ? "true" : "false";

  r.correct = ok && timed_rays == 0 && r.failed == 0 && r.attempted > 0;
  return r;
}

// The delivery check must catch a wrong frame: the same six-client pass is
// verified against the true frames and against a copy whose frame 5 has
// one flipped pixel.
bool selftest_serve() {
  const Script truth = make_script(7);
  Script wrong = truth;
  wrong.frames[5].data()[0] ^= 0x80;  // survives every quantization tier
  auto fleet = fleet_config(7);
  fleet.count = 6;
  Expected good(truth), bad(wrong);
  const PassStats a = run_pass(truth, fleet, &good);
  const PassStats b = run_pass(truth, fleet, &bad);
  std::printf("selftest serve: %llu of %llu deliveries fail against the true "
              "frames (want 0), %llu fail when frame 5 is wrong (want > 0)\n",
              (unsigned long long)a.bad, (unsigned long long)a.checked,
              (unsigned long long)b.bad);
  return a.bad == 0 && a.checked > 0 && b.bad > 0;
}

}  // namespace perfbench
