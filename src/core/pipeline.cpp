#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/block_msg.hpp"
#include "core/ground_overlay.hpp"
#include "core/output.hpp"
#include "core/render_rank.hpp"
#include "core/view_schedule.hpp"
#include "img/image.hpp"
#include "io/block_index.hpp"
#include "io/dataset.hpp"
#include "io/preprocess.hpp"
#include "lic/lic.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/file.hpp"

namespace qv::core {

namespace {

// Per-step message tags are step * 8 + kind: block data (kind 0, see
// core/block_msg.hpp) and frames (kind 1, core/frame_msg.hpp) plus the LIC
// texture (2) and, per epoch, the rebalanced assignment (3). Every per-step
// tag is ≡ 0..3 (mod 8), so the constant control tags 4 and 5 can never
// collide with them.
int tag_lic(int step) { return step * 8 + 2; }
int tag_assign(int epoch) { return epoch * 8 + 3; }
constexpr int kTagNack = 4;  // renderer -> input: resend a corrupt payload
constexpr int kTagDone = 5;  // renderer -> input: no more NACKs will come

// Re-requests per renderer per step before giving up on fresh data. Bounds
// the worst case (every resend corrupted again) instead of looping forever.
constexpr int kMaxNacksPerStep = 4;

// Renderer -> input (kTagNack): please resend.
struct NackMsg {
  std::int32_t step;
  std::int32_t block;  // global block id, or -1 for a 2DIP slice message
};

// Stats shared across the rank threads (joined before run_pipeline returns).
// Only the wall-time accumulators live here now; every event COUNT moved to
// the metrics registry (see PipeCounters below) — they used to be plain ints
// mutated from multiple rank threads and are atomic counters today.
struct Shared {
  const PipelineConfig& config;
  std::vector<img::Image>* frames_out = nullptr;
  PipelineReport report{};
  std::mutex mu{};
  double fetch = 0, preprocess = 0, send = 0;
  double render = 0, composite = 0;
};

// Registry counters backing PipelineReport. The handles are process-global
// and monotone; run_pipeline snapshots their values before spawning ranks
// and fills the report from the after-minus-before deltas, so several
// pipeline runs in one process (benches, tests) never cross-contaminate.
// io.retries and compositing.bytes_sent are owned by vmpi::File and the
// compositing algorithms; they are captured here only for the report diff.
struct PipeCounters {
  metrics::Counter& block_bytes_raw = metrics::counter("pipeline.block_bytes_raw");
  metrics::Counter& block_bytes_sent = metrics::counter("pipeline.block_bytes_sent");
  // Attempted counts every step whose fetch started; completed only those
  // that went on through preprocess+send. They differ under fetch faults.
  metrics::Counter& input_attempted = metrics::counter("pipeline.input_steps_attempted");
  metrics::Counter& input_completed = metrics::counter("pipeline.input_steps_completed");
  metrics::Counter& render_steps = metrics::counter("pipeline.render_steps");
  metrics::Counter& crc_failures = metrics::counter("pipeline.crc_failures");
  metrics::Counter& resends = metrics::counter("pipeline.resends");
  metrics::Counter& dropped_steps = metrics::counter("pipeline.dropped_steps");
  metrics::Counter& degraded_frames = metrics::counter("pipeline.degraded_frames");
  metrics::Counter& io_retries = metrics::counter("io.retries");
  metrics::Counter& composite_bytes = metrics::counter("compositing.bytes_sent");
};

PipeCounters& pipe_counters() {
  static PipeCounters pc;
  return pc;
}

// Deterministic per-rank setup computed from the dataset alone — the
// "one-time preprocessing" every processor can reproduce because the mesh
// is static.
struct Setup {
  const PipelineConfig& cfg;
  io::DatasetReader reader;
  int level;
  const mesh::HexMesh* mesh;
  render::TransferFunction tf;
  int num_steps;
  ViewSchedule views;  // camera + steering fold per step
  BlockLayout layout;  // blocks, initial owners, per-block node lists

  explicit Setup(const PipelineConfig& config)
      : cfg(config),
        reader(config.dataset_dir),
        level(config.adaptive_level < 0 ? reader.meta().finest_level
                                        : config.adaptive_level),
        mesh(&reader.level_mesh(level)),
        tf(!config.tf_file.empty()
               ? render::TransferFunction::from_file(config.tf_file)
               : (config.colormap == Colormap::kSeismic
                      ? render::TransferFunction::seismic()
                      : render::TransferFunction::grayscale())),
        num_steps(config.num_steps < 0
                      ? reader.meta().num_steps
                      : std::min(config.num_steps, reader.meta().num_steps)),
        views("pipeline", config.steer, num_steps, config.render,
              reader.meta().domain, config.width, config.height,
              config.orbit_deg_per_step),
        layout(make_block_layout(*mesh, config.block_level, views.camera(0),
                                 config.render_procs, config.assign)) {}

  // Steering and rebalancing both own the view epoch (run_pipeline rejects
  // enabling both).
  int epoch_of(int step) const {
    if (cfg.steer.enabled) return int(views.epoch(step));
    return cfg.rebalance_every > 0 ? step / cfg.rebalance_every : 0;
  }

  int components() const { return reader.meta().components; }
  std::uint64_t level_offset() const { return reader.level_offset_bytes(level); }
  std::uint64_t level_floats() const {
    return reader.level_bytes(level) / sizeof(float);
  }
};

std::vector<float> read_level_at(vmpi::Comm& comm, const Setup& st,
                                 const std::string& path, std::uint64_t first,
                                 std::uint64_t count_floats) {
  // Transient-retry accounting happens inside vmpi::File (the io.retries
  // counter increments as each retry fires), so a throw loses nothing.
  vmpi::File f(comm, path);
  f.set_retry_policy(st.cfg.io_retry);
  std::vector<float> data(count_floats);
  f.read_at(st.level_offset() + first * sizeof(float),
            {reinterpret_cast<std::uint8_t*>(data.data()),
             count_floats * sizeof(float)});
  return data;
}

// ---------------------------------------------------------------------------
// Input processors
// ---------------------------------------------------------------------------

// An input rank's private wall-time accumulators, flushed to the shared
// stats on scope exit. The destructor (rather than a plain post-loop flush)
// matters under fault injection: a RankKilled unwind must still deliver the
// completed steps' times into the report, or the averages divide by the
// wrong counts. Event counts need no such care — they go straight to the
// registry's atomic counters as they happen.
struct InputStats {
  Shared& sh;
  double fetch = 0, preprocess = 0, send = 0;

  explicit InputStats(Shared& shared) : sh(shared) {}
  ~InputStats() {
    std::lock_guard lk(sh.mu);
    sh.fetch += fetch;
    sh.preprocess += preprocess;
    sh.send += send;
  }
};

// The interleaved records of one step and, under temporal enhancement
// (§4.2), of its neighbours; read(step) fetches one step's records.
struct StepRecords {
  std::vector<float> cur, prev, next;
};

template <typename Read>
StepRecords read_step_records(const Setup& st, int s, Read&& read) {
  StepRecords r;
  r.cur = read(s);
  if (st.cfg.enhancement) {
    if (s > 0) r.prev = read(s - 1);
    if (s + 1 < st.reader.meta().num_steps) r.next = read(s + 1);
  }
  return r;
}

// The records at node positions `pos` of `records`, in that order.
std::vector<float> gather_records(std::span<const float> records,
                                  std::span<const mesh::NodeId> pos,
                                  int comps) {
  const std::size_t c = std::size_t(comps);
  std::vector<float> out(pos.size() * c);
  for (std::size_t i = 0; i < pos.size(); ++i)
    std::copy_n(records.begin() + std::ptrdiff_t(pos[i] * c), c,
                out.begin() + std::ptrdiff_t(i * c));
  return out;
}

// Scalar derivation from interleaved records, with optional temporal
// enhancement from the neighbour steps. Per node, so a subset of the
// records yields the same subset of the scalar.
std::vector<float> make_scalar(const Setup& st, const StepRecords& r) {
  const PipelineConfig& cfg = st.cfg;
  const int comps = st.components();
  auto scalar = io::derive_scalar(r.cur, comps, cfg.variable);
  if (!cfg.enhancement) return scalar;
  std::vector<float> pm, nm;
  if (!r.prev.empty()) pm = io::derive_scalar(r.prev, comps, cfg.variable);
  if (!r.next.empty()) nm = io::derive_scalar(r.next, comps, cfg.variable);
  return io::temporal_enhance(scalar, pm, nm, cfg.enhancement_gain);
}

// One block message an input rank ships each step: `id` (see BlockMsgHeader)
// to world rank `dest`, carrying the values at positions `pos` of its field.
struct Route {
  int dest;
  int id;
  std::span<const mesh::NodeId> pos;
};

void send_blocks(vmpi::Comm& world, const Setup& st, int step,
                 const io::QuantizedField& q, std::span<const Route> routes) {
  std::vector<std::uint8_t> values;
  std::uint64_t raw = 0, sent = 0;
  for (const Route& r : routes) {
    values.resize(r.pos.size());
    for (std::size_t i = 0; i < r.pos.size(); ++i)
      values[i] = q.values[r.pos[i]];
    world.isend(r.dest, block_msg_tag(step),
                make_block_msg(step, r.id, q.lo, q.hi, values,
                               st.cfg.compress_blocks, &raw, &sent));
  }
  pipe_counters().block_bytes_raw.add(raw);
  pipe_counters().block_bytes_sent.add(sent);
}

// A permanent fetch failure: one skip marker to each renderer expecting
// data from this rank, so nobody blocks on data that will never come; they
// will repeat the previous step's frame.
void send_skips(vmpi::Comm& world, int step, std::span<const Route> routes,
                int skip_id) {
  std::vector<int> dests;
  for (const Route& r : routes) dests.push_back(r.dest);
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  for (int d : dests)
    world.isend(d, block_msg_tag(step), make_skip_block_msg(step, skip_id));
}

// Quantization range of every step an input rank shipped: a NACK
// regeneration must reuse it to be bit-identical when the range was
// auto-derived.
using SentRanges = std::map<int, std::pair<float, float>>;

// Answer a NACK for message `id` of step `rs` with a bit-identical
// regeneration: the records read(step) returns, in message order,
// quantized with the step's shipped range. A negative id, a step that
// never shipped, or data that is gone for good is answered with a skip
// marker carrying `skip_id`, and the renderer keeps its stale copy. Must
// not throw.
template <typename Read>
void resend(vmpi::Comm& world, const Setup& st, const SentRanges& ranges,
            int rs, int id, int skip_id, int requester, Read&& read) {
  auto range = ranges.find(rs);
  if (id >= 0 && range != ranges.end()) {
    try {
      auto q = io::quantize(make_scalar(st, read_step_records(st, rs, read)),
                            range->second.first, range->second.second);
      world.isend(requester, block_msg_tag(rs),
                  make_block_msg(rs, id, q.lo, q.hi, q.values,
                                 st.cfg.compress_blocks));
      return;
    } catch (const vmpi::IoError&) {
    }
  }
  world.isend(requester, block_msg_tag(rs), make_skip_block_msg(rs, skip_id));
}

// The surface LIC of one step (§4.3). `lic` holds everything static across
// steps (resample stencil, noise, buffers) and is built on the first call.
void input_lic(vmpi::Comm& world, const PipelineConfig& cfg, const Setup& st,
               int step, std::span<const float> interleaved,
               std::optional<lic::SurfaceLic>& lic) {
  auto field = lic::extract_surface_field(*st.mesh, interleaved);
  if (!lic) lic.emplace(field.positions, cfg.lic_resolution, 0xABCD1234u);
  lic::LicOptions lopt;
  lopt.periodic_kernel = true;
  lopt.phase = float(step % 8) / 8.0f;
  std::span<const float> gray = lic->run(field.vectors, lopt);
  int out_rank = cfg.total_input_procs() + cfg.render_procs;
  world.isend(out_rank, tag_lic(step),
              {reinterpret_cast<const std::uint8_t*>(gray.data()),
               gray.size_bytes()});
}

// Control-plane listener of an input rank. Everything an input ever
// receives funnels through here: epoch assignments, NACK resend requests,
// and the end-of-run DONE markers from the renderers. Centralizing the
// dispatch is what keeps NACK servicing deadlock-free: an input blocked
// waiting for an assignment (or for the renderers to finish) keeps
// servicing resend requests from renderers that may themselves be blocked
// waiting on it.
struct InputControl {
  vmpi::Comm& world;
  // Regenerate and resend the payload a renderer NACKed. block < 0 means
  // "your slice message" (2DIP-independent). Must not throw: a failed
  // regeneration is answered with a skip marker instead.
  std::function<void(int step, int block, int requester)> service_nack;
  std::map<int, std::vector<int>> assignments{};  // epoch -> owners
  int done_count = 0;

  void dispatch_one() {
    std::vector<std::uint8_t> buf;
    vmpi::Status st = world.recv(vmpi::kAnySource, vmpi::kAnyTag, buf);
    if (st.tag == kTagNack) {
      NackMsg nack;
      if (buf.size() != sizeof(nack))
        throw std::runtime_error("pipeline: malformed NACK message");
      std::memcpy(&nack, buf.data(), sizeof(nack));
      service_nack(nack.step, nack.block, st.source);
      // Counted as it happens, so a mid-run kill keeps whatever was
      // already serviced.
      pipe_counters().resends.add();
    } else if (st.tag == kTagDone) {
      ++done_count;
    } else if (st.tag >= 0 && st.tag % 8 == 3) {
      std::vector<int> owners(buf.size() / sizeof(int));
      std::memcpy(owners.data(), buf.data(), owners.size() * sizeof(int));
      assignments[st.tag / 8] = std::move(owners);
    } else {
      throw std::runtime_error("pipeline: unexpected input-rank message, tag=" +
                               std::to_string(st.tag));
    }
  }

  std::vector<int> await_assignment(int epoch) {
    while (!assignments.count(epoch)) dispatch_one();
    std::vector<int> owners = std::move(assignments[epoch]);
    assignments.erase(epoch);
    return owners;
  }

  // Stay on the control plane until every renderer has declared it is done;
  // exiting earlier could strand a renderer waiting for a resend forever.
  void drain_until_done(int render_procs) {
    while (done_count < render_procs) dispatch_one();
  }
};

// One input step: fetch with read(step), preprocess (plus the surface LIC
// when `lic` is set) and ship along `routes`, or ship skip markers carrying
// `skip_id` when the fetch fails for good.
template <typename Read>
void input_step(vmpi::Comm& world, const Setup& st, InputStats& acc, int s,
                Read&& read, std::span<const Route> routes, int skip_id,
                SentRanges& sent, std::optional<lic::SurfaceLic>* lic) {
  WallTimer t;
  std::optional<StepRecords> recs;
  pipe_counters().input_attempted.add();
  {
    trace::Span fetch_span("pipeline", "fetch", s);
    try {
      recs = read_step_records(st, s, read);
    } catch (const vmpi::IoError&) {
      // Permanent failure after retries. Under 2DIP-collective read_all
      // aborts on every group member together, so each renderer still
      // receives exactly one skip marker.
    }
  }
  acc.fetch += t.seconds();
  t.reset();
  if (!recs) {
    send_skips(world, s, routes, skip_id);
    return;
  }
  io::QuantizedField q;
  {
    trace::Span prep_span("pipeline", "preprocess", s);
    q = io::quantize(make_scalar(st, *recs), st.cfg.render.value_lo,
                     st.cfg.render.value_hi);
    sent[s] = {q.lo, q.hi};
    if (lic) input_lic(world, st.cfg, st, s, recs->cur, *lic);
  }
  acc.preprocess += t.seconds();
  t.reset();
  {
    trace::Span send_span("pipeline", "send_blocks", s);
    send_blocks(world, st, s, q, routes);
  }
  acc.send += t.seconds();
  pipe_counters().input_completed.add();
}

// An input processor. 1DIP ranks (no `group_comm`) read whole steps
// round-robin and send every block to its owner. A 2DIP group member
// (`group_comm` spans the m members of its group) reads its share of its
// group's steps: collectively the merged nodes of the renderers it serves
// (§5.3.1), or independently a contiguous slice it forwards to every
// renderer (§5.3.2).
void run_input(Shared& sh, const Setup& st, vmpi::Comm& world,
               vmpi::Comm* group_comm) {
  const PipelineConfig& cfg = sh.config;
  const int I = cfg.total_input_procs();
  const int m = cfg.input_procs;
  const int comps = st.components();
  const BlockLayout& lay = st.layout;
  InputStats acc(sh);
  SentRanges sent_range;
  std::optional<lic::SurfaceLic> lic;

  const bool independent = cfg.strategy == IoStrategy::kTwoDipIndependent;
  const int mi = group_comm ? group_comm->rank() : 0;  // member index
  const int first = group_comm ? world.rank() / m : world.rank();
  const int stride = group_comm ? cfg.groups : m;

  std::vector<Route> routes;  // changes only on a 1DIP rebalance
  std::function<std::vector<float>(int)> read;
  std::function<void(int, int, int)> nack;
  // Every block goes to its owner; 1DIP redoes this per rebalance epoch.
  auto route_to = [&](const std::vector<int>& owners) {
    routes.clear();
    for (std::size_t b = 0; b < owners.size(); ++b)
      routes.push_back({I + owners[b], int(b), lay.index.block_nodes(b)});
  };
  // 2DIP-collective: the merged node list of the renderers this member
  // serves ({r : r % m == mi}) and each block's positions within it.
  std::vector<mesh::NodeId> my_nodes;
  std::vector<std::vector<mesh::NodeId>> block_pos;
  vmpi::IndexedBlockView view;
  // 2DIP-independent: per renderer, the positions of its values within my
  // slice, in forward-map order.
  std::vector<std::vector<mesh::NodeId>> slice_pos(
      std::size_t(cfg.render_procs));

  if (!group_comm) {
    route_to(lay.owners);
    read = [&](int step_id) {
      return read_level_at(world, st, st.reader.step_path(step_id), 0,
                           st.level_floats());
    };
    nack = [&](int rs, int block, int requester) {
      resend(world, st, sent_range, rs, block, -1, requester, [&](int step_id) {
        return gather_records(read(step_id),
                              lay.index.block_nodes(std::size_t(block)), comps);
      });
    };
  } else if (!independent) {
    std::vector<std::size_t> my_blocks;
    for (std::size_t b = 0; b < lay.blocks.size(); ++b)
      if (lay.owners[b] % m == mi) my_blocks.push_back(b);
    my_nodes = io::merged_nodes(lay.index, my_blocks);
    for (std::size_t b : my_blocks) {
      auto nodes = lay.index.block_nodes(b);
      auto& pos = block_pos.emplace_back(nodes.size());
      // my_nodes is sorted, so each node's position is a binary search.
      for (std::size_t i = 0; i < nodes.size(); ++i)
        pos[i] = mesh::NodeId(
            std::lower_bound(my_nodes.begin(), my_nodes.end(), nodes[i]) -
            my_nodes.begin());
    }
    for (std::size_t k = 0; k < my_blocks.size(); ++k)
      routes.push_back({I + lay.owners[my_blocks[k]], int(my_blocks[k]),
                        block_pos[k]});
    view.elem_bytes = std::size_t(comps) * sizeof(float);
    view.block_elems = 1;
    std::uint64_t base_elems = st.level_offset() / view.elem_bytes;
    for (auto nid : my_nodes) view.block_offsets.push_back(base_elems + nid);
    read = [&](int step_id) {
      vmpi::File f(*group_comm, st.reader.step_path(step_id));
      f.set_retry_policy(cfg.io_retry);
      f.set_view(view);
      std::vector<float> data(my_nodes.size() * std::size_t(comps));
      f.read_all({reinterpret_cast<std::uint8_t*>(data.data()),
                  data.size() * sizeof(float)});
      return data;
    };
    // The resend path must never enter a collective read (the rest of the
    // group is not listening), so it reads the block's nodes one by one.
    nack = [&](int rs, int block, int requester) {
      resend(world, st, sent_range, rs, block, -1, requester, [&](int step_id) {
        auto nodes = lay.index.block_nodes(std::size_t(block));
        vmpi::File f(world, st.reader.step_path(step_id));
        f.set_retry_policy(cfg.io_retry);
        const std::size_t rec = std::size_t(comps) * sizeof(float);
        std::vector<float> data(nodes.size() * std::size_t(comps));
        auto* out = reinterpret_cast<std::uint8_t*>(data.data());
        for (std::size_t i = 0; i < nodes.size(); ++i)
          f.read_at(st.level_offset() + nodes[i] * rec, {out + i * rec, rec});
        return data;
      });
    };
  } else {
    auto [lo, hi] = io::slice_bounds(st.level_floats() / std::size_t(comps),
                                     mi, m);
    // Entries are grouped by block ascending then block_pos; split by owner.
    for (const auto& e : io::build_forward_map(lay.index, lo, hi))
      slice_pos[std::size_t(lay.owners[e.block])].push_back(e.slice_pos);
    for (int r = 0; r < cfg.render_procs; ++r)
      routes.push_back({I + r, mi, slice_pos[std::size_t(r)]});
    read = [&, lo = lo, hi = hi](int step_id) {
      return read_level_at(world, st, st.reader.step_path(step_id),
                           std::uint64_t(lo) * std::uint64_t(comps),
                           std::uint64_t(hi - lo) * std::uint64_t(comps));
    };
    nack = [&](int rs, int, int requester) {
      resend(world, st, sent_range, rs, mi, mi, requester, [&](int step_id) {
        return gather_records(read(step_id),
                              slice_pos[std::size_t(requester - I)], comps);
      });
    };
  }

  InputControl ctl{world, nack};
  int cur_epoch = 0;
  for (int s = first; s < st.num_steps; s += stride) {
    world.fault_checkpoint(s);
    // Dynamic redistribution (1DIP only): pick up the assignment of this
    // step's epoch (the render group publishes one per epoch boundary).
    // Rebalance epochs only — steering epochs never reassign blocks.
    while (cfg.rebalance_every > 0 && st.epoch_of(s) > cur_epoch) {
      ++cur_epoch;
      route_to(ctl.await_assignment(cur_epoch));
    }
    input_step(world, st, acc, s, read, routes, independent ? mi : -1,
               sent_range, cfg.lic_overlay ? &lic : nullptr);
  }
  ctl.drain_until_done(cfg.render_procs);
}

// ---------------------------------------------------------------------------
// Rendering processors
// ---------------------------------------------------------------------------

// The assignment of rebalance epoch `next_epoch`, on every renderer: the
// render root gathers the measured per-block costs, reassigns the blocks
// largest-first on them, and sends the plan to the other renderers and to
// every input processor.
std::vector<int> replan(Shared& sh, const Setup& st, vmpi::Comm& world,
                        vmpi::Comm& render_comm, const RenderRank& rank,
                        int next_epoch) {
  const PipelineConfig& cfg = sh.config;
  std::vector<std::uint8_t> packed;
  for (std::size_t i = 0; i < rank.owned().size(); ++i) {
    double rec[2] = {double(rank.owned()[i]), rank.costs()[i]};
    const auto* p = reinterpret_cast<const std::uint8_t*>(rec);
    packed.insert(packed.end(), p, p + sizeof(rec));
  }
  auto gathered = render_comm.gather(packed, 0);
  std::vector<std::uint8_t> wire;
  if (render_comm.rank() != 0) {
    render_comm.bcast(wire, 0);
    std::vector<int> new_owners(wire.size() / sizeof(int));
    std::memcpy(new_owners.data(), wire.data(), wire.size());
    return new_owners;
  }
  std::vector<octree::Block> costed = st.layout.blocks;
  for (const auto& blob : gathered) {
    for (std::size_t off = 0; off + 16 <= blob.size(); off += 16) {
      double rec[2];
      std::memcpy(rec, blob.data() + off, sizeof(rec));
      costed[std::size_t(rec[0])].workload = rec[1];
    }
  }
  std::vector<int> new_owners = octree::assign_blocks(
      costed, cfg.render_procs, octree::AssignStrategy::kLargestFirst);
  // Record the imbalance the old assignment showed this epoch.
  std::vector<double> old_load(std::size_t(cfg.render_procs), 0.0);
  std::vector<double> new_load(std::size_t(cfg.render_procs), 0.0);
  for (std::size_t b = 0; b < costed.size(); ++b) {
    old_load[std::size_t(rank.owners()[b])] += costed[b].workload;
    new_load[std::size_t(new_owners[b])] += costed[b].workload;
  }
  double old_imb = load_imbalance(old_load);
  double new_imb = load_imbalance(new_load);
  // Measured costs are noisy; adopting a plan that scores worse than the
  // assignment already running would oscillate. Keep the old one.
  if (new_imb > old_imb) {
    new_owners = rank.owners();
    new_imb = old_imb;
  }
  {
    std::lock_guard lk(sh.mu);
    sh.report.epoch_imbalance.push_back(old_imb);
    sh.report.epoch_imbalance_replanned.push_back(new_imb);
  }
  wire.resize(new_owners.size() * sizeof(int));
  std::memcpy(wire.data(), new_owners.data(), wire.size());
  render_comm.bcast(wire, 0);
  for (int ip = 0; ip < cfg.total_input_procs(); ++ip) {
    world.isend(ip, tag_assign(next_epoch),
                {reinterpret_cast<const std::uint8_t*>(new_owners.data()),
                 new_owners.size() * sizeof(int)});
  }
  return new_owners;
}

void run_render(Shared& sh, const Setup& st, vmpi::Comm& world,
                vmpi::Comm& render_comm) {
  const PipelineConfig& cfg = sh.config;
  const bool independent = cfg.strategy == IoStrategy::kTwoDipIndependent;
  RenderRank rank(*st.mesh, st.layout, st.views, st.tf,
                  {.width = cfg.width,
                   .height = cfg.height,
                   .render = cfg.render,
                   .render_threads = cfg.render_threads,
                   .compositor = cfg.compositor,
                   .composite_k = cfg.composite_k,
                   .compress = cfg.compress_compositing},
                  world, render_comm);

  // Independent-contiguous reads: precompute, per group member, the scatter
  // list of (owned block, position) matching the member's value order.
  const int m = cfg.input_procs;
  struct Scatter {
    std::size_t local_block;
    std::uint32_t pos;
  };
  std::vector<std::vector<Scatter>> member_scatter;
  if (independent) {
    member_scatter.resize(std::size_t(m));
    for (int mi = 0; mi < m; ++mi) {
      auto [lo, hi] = io::slice_bounds(
          st.level_floats() / std::size_t(st.components()), mi, m);
      for (const auto& e : io::build_forward_map(st.layout.index, lo, hi)) {
        const int li = rank.local(e.block);
        if (li >= 0)
          member_scatter[std::size_t(mi)].push_back(
              {std::size_t(li), e.block_pos});
      }
    }
  }

  const auto timeout = std::chrono::milliseconds(
      cfg.recv_timeout_ms > 0 ? cfg.recv_timeout_ms : 0);
  std::vector<std::uint8_t> scratch, msg;
  for (int s = 0; s < st.num_steps; ++s) {
    // --- receive this step's data (later steps keep arriving in the
    //     background into the mailbox — that's the §4 overlap) -------------
    // A message can be a skip marker ("this step's data is not coming"), a
    // timeout can fire (a dead input), and a payload can fail its CRC (then
    // NACK the sender for a bit-identical regeneration). Whatever cannot be
    // recovered leaves the previous step's values in place — frame repeat —
    // and marks the step degraded.
    bool degraded = false;
    int nacks_left = kMaxNacksPerStep;
    std::size_t remaining =
        independent ? std::size_t(m) : rank.owned().size();
    while (remaining > 0) {
      vmpi::Status rst;
      bool got = true;
      {
        // The wait_blocks span brackets only the blocking receive, not the
        // unpack work around it: the trace analysis treats its total as the
        // renderer's input-starvation stall.
        trace::Span wait_span("pipeline", "wait_blocks", s);
        if (cfg.recv_timeout_ms > 0)
          got = world.recv_timeout(vmpi::kAnySource, block_msg_tag(s), msg,
                                   timeout, &rst);
        else
          rst = world.recv(vmpi::kAnySource, block_msg_tag(s), msg);
      }
      if (!got) {
        degraded = true;  // an input died; render what we have
        break;
      }
      const BlockMsgHeader hdr = block_msg_header(msg);
      if (hdr.flags & kFlagStepSkipped) {
        degraded = true;
        // All my blocks for this step come from the one sender that just
        // gave up, so nothing further is in flight; a member's skip stales
        // only its share, and the others still count.
        if (!independent) break;
        --remaining;
        continue;
      }
      if (!block_payload_ok(hdr, msg)) {
        pipe_counters().crc_failures.add();
        if (nacks_left-- > 0) {
          NackMsg nack{s, independent ? -1 : hdr.id};
          world.isend(rst.source, kTagNack,
                      {reinterpret_cast<const std::uint8_t*>(&nack),
                       sizeof(nack)});
        } else {
          degraded = true;
          --remaining;  // give up on this message; keep its stale values
        }
        continue;
      }
      if (independent) {
        const auto& scatter = member_scatter.at(std::size_t(hdr.id));
        if (scatter.size() != hdr.count)
          throw std::runtime_error("pipeline: slice message size mismatch");
        unpack_block_msg(hdr, msg, scratch, [&](std::size_t i, float v) {
          rank.values(scatter[i].local_block)[scatter[i].pos] = v;
        });
      } else {
        rank.unpack(hdr, msg);
      }
      --remaining;
    }

    // The whole group must agree on the degraded flag — the output
    // processor needs one consistent answer per frame.
    const bool step_degraded =
        render_comm.allreduce_max(degraded ? 1.0 : 0.0) > 0.0;
    if (render_comm.rank() == 0 && step_degraded)
      pipe_counters().dropped_steps.add();

    rank.step(s, std::uint32_t(st.epoch_of(s)), step_degraded);

    // --- fine-grain dynamic load redistribution (§7) -----------------------
    if (cfg.rebalance_every > 0 && s + 1 < st.num_steps &&
        st.epoch_of(s + 1) > st.epoch_of(s)) {
      rank.reassign(
          replan(sh, st, world, render_comm, rank, st.epoch_of(s + 1)));
    }
  }
  // Release the inputs' control loops: this renderer will NACK no more.
  for (int ip = 0; ip < cfg.total_input_procs(); ++ip)
    world.isend(ip, kTagDone, std::span<const std::uint8_t>{});
  pipe_counters().render_steps.add(std::uint64_t(st.num_steps));
  std::lock_guard lk(sh.mu);
  sh.render += rank.render_seconds();
  sh.composite += rank.composite_seconds();
}

// ---------------------------------------------------------------------------
// Output processor
// ---------------------------------------------------------------------------

void run_output(Shared& sh, const Setup& st, vmpi::Comm& world) {
  const PipelineConfig& cfg = sh.config;
  OutputSink sink(cfg, "frame_", world, sh.frames_out);
  std::vector<int> degraded_steps;
  std::vector<float> last_gray;  // LIC texture frame-repeat buffer
  for (int s = 0; s < st.num_steps; ++s) {
    bool degraded = false;
    img::Image frame =
        sink.receive(s, std::uint32_t(st.epoch_of(s)), &degraded);
    if (degraded) degraded_steps.push_back(s);

    if (cfg.lic_overlay) {
      // A degraded step's input may never have produced a LIC texture —
      // repeat the previous one, the same policy as the volume data.
      if (!degraded) {
        std::vector<std::uint8_t> lmsg;
        world.recv(vmpi::kAnySource, tag_lic(s), lmsg);
        last_gray.resize(lmsg.size() / sizeof(float));
        std::memcpy(last_gray.data(), lmsg.data(), lmsg.size());
      }
      if (!last_gray.empty()) {
        img::Image ground = render_ground_overlay(
            st.views.camera(s), st.mesh->domain(), last_gray,
            cfg.lic_resolution, cfg.lic_resolution);
        ground.composite_over(frame);  // volume image in front of LIC plane
        frame = std::move(ground);
      }
    }
    sink.emit(std::move(frame));
  }
  pipe_counters().degraded_frames.add(degraded_steps.size());
  OutputSink::Report out = sink.finish();
  std::lock_guard lk(sh.mu);
  sh.report.frame_seconds = std::move(out.frame_seconds);
  sh.report.avg_interframe = out.avg_interframe;
  sh.report.degraded_steps = std::move(degraded_steps);
  sh.report.stream = std::move(out.stream);
  sh.report.server = std::move(out.server);
}

}  // namespace

PipelineReport run_pipeline(const PipelineConfig& config_in,
                            std::vector<img::Image>* frames_out) {
  // Local copy: validation below may reroute the compositor choice.
  PipelineConfig config = config_in;
  if (config.compositor == Compositor::kBinarySwap &&
      (config.render_procs & (config.render_procs - 1)) != 0) {
    // binary_swap() itself aborts on a non-power-of-two communicator; route
    // to radix-k with k=2 — the same swap structure generalized to any
    // count, bit-identical output, no degradation to direct-send.
    config.compositor = Compositor::kRadixK;
    config.composite_k = 2;
  }
  if (config.compositor == Compositor::kRadixK && config.composite_k < 2)
    throw std::runtime_error("pipeline: composite_k must be >= 2");
  if (config.lic_overlay && config.strategy != IoStrategy::kOneDip)
    throw std::runtime_error(
        "pipeline: the LIC overlay path requires the 1DIP strategy (as in "
        "the paper's Figure 12 configuration)");
  if (config.rebalance_every > 0 && config.strategy != IoStrategy::kOneDip)
    throw std::runtime_error(
        "pipeline: dynamic load redistribution requires the 1DIP strategy");
  if (config.render_procs < 1 || config.input_procs < 1 || config.groups < 1)
    throw std::runtime_error("pipeline: bad processor counts");
  if (config.steer.enabled && config.rebalance_every > 0)
    throw std::runtime_error(
        "pipeline: steering and dynamic load redistribution both own the "
        "view-epoch field; enable one or the other");
  if (config.fault_plan && config.fault_plan->kill_rank >= 0) {
    // A rank death is only survivable when the victim's peers never enter a
    // collective with it — exactly the 1DIP input side (mirroring what a
    // real MPI job could tolerate with a fault-aware transport).
    if (config.strategy != IoStrategy::kOneDip)
      throw std::runtime_error(
          "pipeline: rank-kill faults are survivable only under 1DIP (a 2DIP "
          "group would deadlock in its collective read)");
    if (config.fault_plan->kill_rank >= config.total_input_procs())
      throw std::runtime_error(
          "pipeline: only input ranks can be killed; renderers and the "
          "output processor join collectives every step");
    if (config.recv_timeout_ms <= 0)
      throw std::runtime_error(
          "pipeline: a kill fault requires recv_timeout_ms > 0 — a dead "
          "input is only detectable by the absence of its traffic");
  }

  Shared sh{config, frames_out};

  // Surface the post-validation algorithm choice: tests and qv-run-report
  // assert on what actually ran, not on what was requested.
  switch (config.compositor) {
    case Compositor::kSlic:
      sh.report.compositor = "slic";
      metrics::counter("compositing.algo.slic").add(1);
      break;
    case Compositor::kDirectSend:
      sh.report.compositor = "direct-send";
      metrics::counter("compositing.algo.direct_send").add(1);
      break;
    case Compositor::kBinarySwap:
      sh.report.compositor = "binary-swap";
      metrics::counter("compositing.algo.binary_swap").add(1);
      break;
    case Compositor::kRadixK:
      sh.report.compositor =
          "radix-k(k=" + std::to_string(config.composite_k) + ")";
      metrics::counter("compositing.algo.radix_k").add(1);
      break;
  }

  // Baseline values of the registry counters this report is built from;
  // everything below runs single-threaded before/after the rank threads.
  PipeCounters& pc = pipe_counters();
  const std::uint64_t base_raw = pc.block_bytes_raw.value();
  const std::uint64_t base_sent = pc.block_bytes_sent.value();
  const std::uint64_t base_attempted = pc.input_attempted.value();
  const std::uint64_t base_completed = pc.input_completed.value();
  const std::uint64_t base_render_steps = pc.render_steps.value();
  const std::uint64_t base_crc = pc.crc_failures.value();
  const std::uint64_t base_resends = pc.resends.value();
  const std::uint64_t base_dropped = pc.dropped_steps.value();
  const std::uint64_t base_degraded = pc.degraded_frames.value();
  const std::uint64_t base_retries = pc.io_retries.value();
  const std::uint64_t base_composite_bytes = pc.composite_bytes.value();

  vmpi::Runtime::run(config.world_size(), [&sh, &config](vmpi::Comm& world) {
    Setup st(config);
    const int r = world.rank();
    const int role = driver_role(world, config.total_input_procs(),
                                 config.render_procs, "input");
    vmpi::Comm sub = world.split(role, r);
    std::optional<vmpi::Comm> group_comm;
    if (role == 0 && config.strategy != IoStrategy::kOneDip) {
      int group = r / config.input_procs;
      group_comm.emplace(sub.split(group, r % config.input_procs));
    }
    world.barrier();  // synchronized start: frame clocks begin here

    switch (role) {
      case 0:
        run_input(sh, st, world, group_comm ? &*group_comm : nullptr);
        break;
      case 1:
        run_render(sh, st, world, sub);
        break;
      default:
        run_output(sh, st, world);
        break;
    }
  }, config.fault_plan);

  PipelineReport& rep = sh.report;
  const int render_steps_total = int(pc.render_steps.value() - base_render_steps);
  rep.steps =
      render_steps_total > 0 ? render_steps_total / config.render_procs : 0;
  rep.input_steps_attempted = int(pc.input_attempted.value() - base_attempted);
  rep.input_steps_completed = int(pc.input_completed.value() - base_completed);
  // Fetch runs on every *attempted* step; preprocess and send only on steps
  // that completed. Dividing all three by the same count used to deflate the
  // per-step averages of degraded runs (dropped steps padded the
  // denominator with stages that never executed).
  int fetch_steps = std::max(rep.input_steps_attempted, 1);
  int done_steps = std::max(rep.input_steps_completed, 1);
  int rn_steps = std::max(rep.steps, 1);
  rep.avg_fetch = sh.fetch / fetch_steps;
  rep.avg_preprocess = sh.preprocess / done_steps;
  rep.avg_send = sh.send / done_steps;
  rep.avg_render = sh.render / (rn_steps * config.render_procs);
  rep.avg_composite = sh.composite / (rn_steps * config.render_procs);
  rep.composite_bytes = pc.composite_bytes.value() - base_composite_bytes;
  rep.block_bytes_raw = pc.block_bytes_raw.value() - base_raw;
  rep.block_bytes_sent = pc.block_bytes_sent.value() - base_sent;
  rep.retries = pc.io_retries.value() - base_retries;
  rep.corrupt_blocks_detected = pc.crc_failures.value() - base_crc;
  rep.resend_requests = pc.resends.value() - base_resends;
  rep.dropped_steps = int(pc.dropped_steps.value() - base_dropped);
  rep.degraded_frames = int(pc.degraded_frames.value() - base_degraded);
  return rep;
}

}  // namespace qv::core
