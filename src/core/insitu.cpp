#include "core/insitu.hpp"

#include <mutex>
#include <stdexcept>

#include "core/block_msg.hpp"
#include "core/output.hpp"
#include "core/render_rank.hpp"
#include "core/view_schedule.hpp"
#include "io/preprocess.hpp"
#include "quake/parallel_solver.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "vmpi/comm.hpp"

namespace qv::core {

namespace {

struct Shared {
  const InsituConfig& cfg;
  std::vector<img::Image>* frames_out;
  InsituReport report;
  std::mutex mu;
};

// Deterministic decomposition shared by every role.
struct Setup {
  mesh::HexMesh mesh;
  render::TransferFunction tf;
  ViewSchedule views;  // camera + steering fold per snapshot
  BlockLayout layout;

  explicit Setup(const InsituConfig& cfg)
      : mesh(build_insitu_mesh(cfg)),
        tf(cfg.colormap == Colormap::kSeismic
               ? render::TransferFunction::seismic()
               : render::TransferFunction::grayscale()),
        views("insitu", cfg.steer, cfg.snapshots, cfg.render, mesh.domain(),
              cfg.width, cfg.height, cfg.orbit_deg_per_step),
        layout(make_block_layout(mesh, cfg.block_level, views.camera(0),
                                 cfg.render_procs, cfg.assign)) {}
};

void run_sim(Shared& sh, const Setup& st, vmpi::Comm& world,
             vmpi::Comm& sim_comm) {
  const InsituConfig& cfg = sh.cfg;
  // The simulation itself runs distributed across the sim group (the
  // element work is partitioned; one force reduction per step), mirroring
  // the paper's simulation side running on its own processor set.
  quake::ParallelWaveSolver solver(st.mesh, cfg.basin.field(), cfg.solver,
                                   sim_comm);
  solver.add_source(cfg.source);
  const bool streamer = sim_comm.rank() == 0;

  double sim_seconds = 0.0;
  std::vector<std::uint8_t> values;
  for (int snap = 0; snap < cfg.snapshots; ++snap) {
    WallTimer t;
    {
      trace::Span sim_span("pipeline", "sim_step", snap);
      for (int k = 0; k < cfg.steps_per_snapshot; ++k) solver.step();
    }
    sim_seconds += t.seconds();

    if (!streamer) continue;  // only the sim group's root streams
    // Preprocess and stream the snapshot to the renderers (monitoring taps
    // straight off the solver's state — no file system in the path).
    trace::Span stream_span("pipeline", "send_blocks", snap);
    auto vel = solver.velocity_interleaved();
    auto scalar = io::derive_scalar(vel, 3, cfg.variable);
    auto q = io::quantize(scalar, cfg.render.value_lo, cfg.render.value_hi);
    for (std::size_t b = 0; b < st.layout.blocks.size(); ++b) {
      auto nodes = st.layout.index.block_nodes(b);
      values.resize(nodes.size());
      for (std::size_t i = 0; i < nodes.size(); ++i)
        values[i] = q.values[nodes[i]];
      world.isend(cfg.sim_procs + st.layout.owners[b], block_msg_tag(snap),
                  make_block_msg(snap, int(b), q.lo, q.hi, values, false));
    }
  }
  if (streamer) {
    std::lock_guard lk(sh.mu);
    sh.report.sim_seconds = sim_seconds;
    sh.report.sim_time_reached = solver.time();
  }
}

void run_render(Shared& sh, const Setup& st, vmpi::Comm& world,
                vmpi::Comm& render_comm) {
  const InsituConfig& cfg = sh.cfg;
  // In-situ composites with uncompressed SLIC, the Options defaults.
  RenderRank rank(st.mesh, st.layout, st.views, st.tf,
                  {.width = cfg.width,
                   .height = cfg.height,
                   .render = cfg.render,
                   .render_threads = cfg.render_threads},
                  world, render_comm);
  std::vector<std::uint8_t> msg;
  for (int snap = 0; snap < cfg.snapshots; ++snap) {
    for (std::size_t k = 0; k < rank.owned().size(); ++k) {
      {
        trace::Span wait_span("pipeline", "wait_blocks", snap);
        world.recv(vmpi::kAnySource, block_msg_tag(snap), msg);
      }
      const BlockMsgHeader hdr = block_msg_header(msg);
      // No fault layer runs in-situ: a bad payload is a bug, not noise.
      if (!block_payload_ok(hdr, msg))
        throw std::runtime_error("insitu: corrupt block message");
      rank.unpack(hdr, msg);
    }
    rank.step(snap, st.views.epoch(snap), false);
  }
}

void run_output(Shared& sh, const Setup& st, vmpi::Comm& world) {
  const InsituConfig& cfg = sh.cfg;
  OutputSink sink(cfg, "insitu_", world, sh.frames_out);
  for (int snap = 0; snap < cfg.snapshots; ++snap)
    sink.emit(sink.receive(snap, st.views.epoch(snap)));
  OutputSink::Report out = sink.finish();
  std::lock_guard lk(sh.mu);
  sh.report.frame_seconds = std::move(out.frame_seconds);
  sh.report.avg_interframe = out.avg_interframe;
  sh.report.snapshots = cfg.snapshots;
  sh.report.stream = std::move(out.stream);
  sh.report.server = std::move(out.server);
}

}  // namespace

mesh::HexMesh build_insitu_mesh(const InsituConfig& config) {
  auto tree = mesh::LinearOctree::build(
      config.domain,
      config.basin.size_field(config.mesh_max_freq_hz,
                              config.mesh_points_per_wavelength),
      config.mesh_min_level, config.mesh_max_level);
  return mesh::HexMesh(std::move(tree));
}

InsituReport run_insitu(const InsituConfig& config,
                        std::vector<img::Image>* frames_out) {
  if (config.render_procs < 1 || config.snapshots < 1 ||
      config.sim_procs < 1)
    throw std::runtime_error("insitu: bad configuration");
  Shared sh{config, frames_out, {}, {}};

  vmpi::Runtime::run(config.world_size(), [&sh, &config](vmpi::Comm& world) {
    Setup st(config);
    const int role =
        driver_role(world, config.sim_procs, config.render_procs, "sim");
    vmpi::Comm sub = world.split(role, world.rank());
    world.barrier();
    switch (role) {
      case 0:
        run_sim(sh, st, world, sub);
        break;
      case 1:
        run_render(sh, st, world, sub);
        break;
      default:
        run_output(sh, st, world);
        break;
    }
  });
  return sh.report;
}

}  // namespace qv::core
