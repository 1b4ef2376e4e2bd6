// The two simulation workloads.
//
// Untraced: set-up is sampled several times (the first, cold one also takes
// one discarded step), then complete runs from machine spawn to z_final are
// repeated until --seconds have passed. Every step is followed by
// Simulation::health_check, and each run's initial and final P(k) go to the
// runner, which compares their ratio with perfbench/reference.json.
//
// Traced: one run to z_final warms the state; the layer probes then run on
// that final state (traced_simulation).
#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <omp.h>

#include "comm/telemetry.h"
#include "cosmology/halo_finder.h"
#include "fft/pencil.h"
#include "gio/particle_io.h"
#include "mesh/cic.h"
#include "mesh/grid.h"
#include "mesh/poisson.h"
#include "obs/obs.h"
#include "perfmodel/kernel_model.h"
#include "tree/multi_tree.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace hacc;

/// Set-up samples taken before the timed runs, and as many after them, so
/// their median spans the host's state over the whole run.
constexpr int kSetupSamples = 6;

/// Bins of the final P(k) handed to the reference check.
constexpr std::size_t kPowerBins = 32;

struct SimShape {
  std::size_t grid;
  std::size_t particles_per_dim;
  double box_mpch;
  int subcycles;
  double overload;
  int ranks;
};

// Sizes from the workload table in README.md; everything else keeps the
// SimulationConfig defaults, so the benchmark measures what users run.
constexpr SimShape kTreepmClustered{64, 64, 64.0, 5, 2.0, 2};
constexpr SimShape kPmDominated{128, 32, 256.0, 2, 4.0, 4};

core::SimulationConfig sim_config(const SimShape& s, std::uint64_t seed) {
  core::SimulationConfig cfg;
  cfg.grid = s.grid;
  cfg.particles_per_dim = s.particles_per_dim;
  cfg.box_mpch = s.box_mpch;
  cfg.subcycles = s.subcycles;
  cfg.overload = s.overload;
  cfg.seed = seed;
  return cfg;
}

double particles_total(const core::SimulationConfig& cfg) {
  return std::pow(static_cast<double>(cfg.particles_per_dim), 3);
}

std::uint64_t comm_bytes_sent(const obs::Counters& counters) {
  std::uint64_t total = 0;
  for (int op = 0; op < static_cast<int>(comm::telemetry::Op::kOpCount); ++op)
    total += counters.value(
        comm::telemetry::ids(static_cast<comm::telemetry::Op>(op)).bytes_sent);
  return total;
}

struct RunRecord {
  double setup_s = 0;
  double makespan_s = 0;
  std::vector<double> step_walls;
  int steps_ok = 0;
  std::vector<cosmology::PowerBin> initial_power, final_power;
  std::string error;
};

/// One complete run: spawn, set up, step to z_final with a health check
/// after every step; P(k) is measured after set-up and at the end.
RunRecord complete_run(const core::SimulationConfig& cfg, int ranks) {
  const cosmology::Cosmology cosmo;
  RunRecord rec;
  const double t0 = now_s();
  try {
    comm::Machine::run(ranks, [&](comm::Comm& c) {
      core::Simulation sim(c, cosmo, cfg);
      sim.initialize();
      c.barrier();
      if (c.rank() == 0) rec.setup_s = now_s() - t0;
      auto initial = sim.power_spectrum(kPowerBins);
      if (c.rank() == 0) rec.initial_power = std::move(initial);
      for (int s = 0; s < cfg.steps; ++s) {
        const double ts = now_s();
        sim.step();
        c.barrier();
        const double wall = now_s() - ts;
        const bool ok = sim.health_check().ok();
        if (c.rank() == 0) {
          rec.step_walls.push_back(wall);
          if (ok) ++rec.steps_ok;
        }
      }
      auto power = sim.power_spectrum(kPowerBins);
      if (c.rank() == 0) rec.final_power = std::move(power);
    });
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.makespan_s = now_s() - t0;
  return rec;
}

/// Spawn and set up once; the cold first sample also takes one step, so
/// code paths and allocators are warm before anything is timed.
double setup_sample(const core::SimulationConfig& cfg, int ranks,
                    bool warm_step) {
  const cosmology::Cosmology cosmo;
  double setup = 0;
  const double t0 = now_s();
  comm::Machine::run(ranks, [&](comm::Comm& c) {
    core::Simulation sim(c, cosmo, cfg);
    sim.initialize();
    c.barrier();
    if (c.rank() == 0) setup = now_s() - t0;
    if (warm_step) sim.step();
  });
  return setup;
}

void untraced_simulation(const Args& args, const SimShape& shape,
                         Result& res) {
  const core::SimulationConfig cfg = sim_config(shape, args.seed);
  // Set-up samples: the cold first one is discarded; every timed run adds
  // one more, and more follow the runs.
  std::vector<double> setups;
  for (int i = 0; i <= kSetupSamples; ++i) {
    const double s = setup_sample(cfg, shape.ranks, i == 0);
    if (i > 0) setups.push_back(s);
  }

  std::vector<double> walls, makespans, peaks;
  std::vector<RunRecord> runs;
  const double t_start = now_s();
  do {
    // Each run's peak is taken from a trimmed heap, as a process that makes
    // one run would see it, not on top of what earlier runs left behind.
    reset_peak_rss();
    RunRecord rec = complete_run(cfg, shape.ranks);
    peaks.push_back(peak_rss_mb());
    res.attempted += static_cast<std::uint64_t>(cfg.steps);
    res.failed += static_cast<std::uint64_t>(cfg.steps - rec.steps_ok);
    if (!rec.error.empty()) {
      res.check("run " + std::to_string(runs.size()) + " completes", false,
                rec.error);
      break;
    }
    setups.push_back(rec.setup_s);
    makespans.push_back(rec.makespan_s);
    walls.insert(walls.end(), rec.step_walls.begin(), rec.step_walls.end());
    runs.push_back(std::move(rec));
  } while (now_s() - t_start < args.seconds);
  for (int i = 0; i < kSetupSamples; ++i)
    setups.push_back(setup_sample(cfg, shape.ranks, false));

  res.check("every step passes Simulation::health_check",
            res.failed == 0,
            std::to_string(res.failed) + " of " +
                std::to_string(res.attempted) + " steps failed");
  if (runs.empty()) return;

  double stepping = 0;
  for (const double w : walls) stepping += w;
  const double steps = static_cast<double>(walls.size());
  res.metrics["setup_s"] = median(setups);
  res.metrics["makespan_s"] = median(makespans);
  res.metrics["peak_rss_mb"] = median(peaks);
  res.metrics["steps_per_s"] = steps / stepping;
  res.metrics["ns_per_substep_particle"] =
      1e9 * stepping /
      (steps * static_cast<double>(cfg.subcycles) * particles_total(cfg));
  std::string setup_list;
  for (const double x : setups) setup_list += fmt("%.3f ", x);
  res.info["setup_samples_s"] = setup_list;
  res.info["runs"] = std::to_string(runs.size());
  res.info["steps_timed"] = std::to_string(walls.size());

  // Initial and final P(k) of every run, for the runner's reference
  // comparison of their ratio (the growth of this very realization).
  const auto add = [&](const std::string& name,
                       const std::vector<cosmology::PowerBin>& bins) {
    std::vector<double> k, p, modes;
    for (const auto& b : bins) {
      k.push_back(b.k);
      p.push_back(b.power);
      modes.push_back(static_cast<double>(b.modes));
    }
    res.series["pk_k"] = k;
    res.series["pk_modes"] = modes;
    res.series[name] = p;
  };
  for (std::size_t r = 0; r < runs.size(); ++r) {
    add("pk_initial_run" + std::to_string(r), runs[r].initial_power);
    add("pk_final_run" + std::to_string(r), runs[r].final_power);
  }
}

void run_simulation(const Args& args, const SimShape& shape, Result& res,
                    SpanLog& spans) {
  res.info["ranks"] = std::to_string(shape.ranks);
  if (!args.trace) {
    untraced_simulation(args, shape, res);
    return;
  }
  traced_simulation(sim_config(shape, args.seed), shape.ranks, "", res,
                    spans);
}

/// Per-rank counts the probes read from return values and accessors.
struct RankCounts {
  std::vector<tree::InteractionStats> sr;
  std::vector<core::RefreshStats> refresh;
  std::vector<double> fft_bytes;
  std::size_t actives = 0, locals = 0;
  double comm_bytes_step = 0;   ///< median over untraced frozen steps
  double migrated_last = 0;     ///< refresh.migrated over the last step
  std::uint64_t gio_write_bytes = 0, gio_read_bytes = 0;
};

}  // namespace

void traced_simulation(const core::SimulationConfig& cfg, int ranks,
                       const std::string& io_dir, Result& res,
                       SpanLog& spans) {
  const cosmology::Cosmology cosmo;
  ProbeLog log(ranks);
  std::vector<RankCounts> counts(static_cast<std::size_t>(ranks));
  std::vector<double> plain_walls, traced_walls;
  double verify_s = 0, fof_s = 0;
  std::size_t halos_found = 0;
  int unhealthy = 0;
  const std::string ckpt = io_dir + "/probe_checkpoint.gio";
  const std::string particles_file = io_dir + "/probe_particles.gio";

  comm::Machine::run(ranks, [&](comm::Comm& c) {
    RankCounts& mine = counts[static_cast<std::size_t>(c.rank())];
    core::Simulation sim(c, cosmo, cfg);
    probe(c, log, spans, "cosmology.ic", [&] { sim.initialize(); });

    // Warm to the steady state: the whole schedule, untimed.
    const NameId migrated_id = obs::counter_id("refresh.migrated");
    std::uint64_t migrated_before = 0;
    for (int s = 0; s < cfg.steps; ++s) {
      migrated_before = sim.counters().value(migrated_id);
      const double t0 = now_s();
      sim.step();
      spans.add("core.step.warmup", c.rank(), t0, now_s() - t0);
      if (!sim.health_check().ok() && c.rank() == 0) ++unhealthy;
    }
    mine.migrated_last = static_cast<double>(
        sim.counters().value(migrated_id) - migrated_before);

    // Frozen steps at a = a_final repeat the last step's work exactly
    // (zero-length kicks and drifts). Alternate the program's own tracer
    // off and on; the ledger record follows each traced step.
    std::vector<double> comm_bytes;
    for (int k = 0; k < 2 * kProbeReps; ++k) {
      const bool traced = k % 2 == 1;
      sim.tracer().set_enabled(traced);
      const std::uint64_t bytes0 = comm_bytes_sent(sim.counters());
      c.barrier();
      const double t0 = now_s();
      sim.step();
      c.barrier();
      const double wall = now_s() - t0;
      spans.add(traced ? "core.step.traced" : "core.step", c.rank(), t0, wall);
      if (c.rank() == 0) (traced ? traced_walls : plain_walls).push_back(wall);
      if (traced)
        probe(c, log, spans, "obs.ledger_record",
              [&] { sim.record_step_ledger(); });
      else
        comm_bytes.push_back(
            static_cast<double>(comm_bytes_sent(sim.counters()) - bytes0));
    }
    sim.tracer().set_enabled(false);
    mine.comm_bytes_step = median(comm_bytes);

    // Layer probes on copies of the final state.
    const mesh::BlockDecomp3D& decomp = sim.domain().decomp();
    const std::size_t ghost =
        static_cast<std::size_t>(std::ceil(cfg.overload)) + 2;  // as step()
    mesh::PoissonSolver poisson(c, decomp, cfg.spectral);
    fft::PencilFft3D fft =
        fft::PencilFft3D::balanced(c, cfg.grid, cfg.grid, cfg.grid);
    std::vector<double> fft_in(fft.real_box().volume());
    for (std::size_t i = 0; i < fft_in.size(); ++i)
      fft_in[i] = std::sin(0.37 * static_cast<double>(i));
    const tree::KernelVariant variant =
        tree::kernel_variant_from_env(cfg.kernel);
    tree::ShortRangeWorkspace workspace;
    const tree::ParticleArray& state = sim.particles();
    std::vector<float> xs, ys, zs;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (state.role[i] != tree::Role::kActive) continue;
      xs.push_back(state.x[i]);
      ys.push_back(state.y[i]);
      zs.push_back(state.z[i]);
    }
    mine.actives = xs.size();
    mine.locals = state.size();

    for (int rep = 0; rep < kProbeReps; ++rep) {
      // tree: build + short-range kernel, as each sub-cycle does.
      tree::ParticleArray copy = state;
      std::vector<float> ax(copy.size()), ay(copy.size()), az(copy.size());
      std::unique_ptr<tree::MultiTree> forest;
      probe(c, log, spans, "tree.build", [&] {
        forest = std::make_unique<tree::MultiTree>(
            copy, tree::MultiTreeConfig{cfg.tree_splits,
                                        tree::RcbConfig{cfg.leaf_size}});
      });
      tree::InteractionStats stats;
      probe(c, log, spans, "tree.sr", [&] {
        stats = tree::compute_short_range_multi(*forest, sim.kernel(), ax, ay,
                                                az, sim.mass_scale(), variant,
                                                &workspace);
      });
      mine.sr.push_back(stats);

      // mesh: one long-range kick's calls (step() makes two kicks).
      mesh::DistGrid rho(decomp, c.rank(), ghost);
      probe(c, log, spans, "mesh.cic_deposit", [&] {
        if (cfg.threaded_deposit)
          mesh::cic_deposit_threaded(rho, xs, ys, zs, 1.0f);
        else
          mesh::cic_deposit(rho, xs, ys, zs, 1.0f);
      });
      probe(c, log, spans, "mesh.fold_ghosts", [&] { rho.fold_ghosts(c); });
      probe(c, log, spans, "mesh.density_contrast",
            [&] { mesh::to_density_contrast(rho, c); });
      std::array<mesh::DistGrid, 3> force{
          mesh::DistGrid(decomp, c.rank(), ghost),
          mesh::DistGrid(decomp, c.rank(), ghost),
          mesh::DistGrid(decomp, c.rank(), ghost)};
      probe(c, log, spans, "mesh.poisson_solve",
            [&] { poisson.solve(c, rho, force); });
      std::vector<float> g(state.size());
      for (auto& f : force) {
        probe(c, log, spans, "mesh.fill_ghosts", [&] { f.fill_ghosts(c); });
        probe(c, log, spans, "mesh.cic_interp", [&] {
          mesh::cic_interpolate(f, state.x, state.y, state.z, g,
                                /*clamp_to_storage=*/true);
        });
      }

      // fft: the pencil transforms at the workload grid.
      std::vector<fft::Complex> spectrum;
      std::vector<double> real_out;
      std::size_t bytes0 = fft.stats().bytes_moved;
      probe(c, log, spans, "fft.r2c",
            [&] { fft.forward_r2c(fft_in, spectrum); });
      mine.fft_bytes.push_back(
          static_cast<double>(fft.stats().bytes_moved - bytes0));
      bytes0 = fft.stats().bytes_moved;
      probe(c, log, spans, "fft.c2r",
            [&] { fft.inverse_c2r(spectrum, real_out); });
      mine.fft_bytes.push_back(
          static_cast<double>(fft.stats().bytes_moved - bytes0));

      // core: the overloading refresh and the health check.
      tree::ParticleArray refreshed = state;
      core::RefreshStats rs;
      probe(c, log, spans, "core.refresh",
            [&] { rs = sim.domain().refresh(c, refreshed); });
      mine.refresh.push_back(rs);
      probe(c, log, spans, "core.health_check", [&] {
        if (!sim.health_check().ok() && c.rank() == 0) ++unhealthy;
      });
    }
    probe(c, log, spans, "cosmology.power_spectrum",
          [&] { sim.power_spectrum(kPowerBins); });

    if (io_dir.empty()) return;
    // Checkpoint and gio probes (campaign_serve only), then FOF.
    probe(c, log, spans, "core.checkpoint_write",
          [&] { sim.write_checkpoint(ckpt); });
    probe(c, log, spans, "core.checkpoint_read",
          [&] { sim.read_checkpoint(ckpt); });
    tree::ParticleArray actives;
    for (std::size_t i = 0; i < sim.particles().size(); ++i)
      if (sim.particles().role[i] == tree::Role::kActive)
        actives.append_from(sim.particles(), i);
    gio::GlobalMeta meta;
    meta.scale_factor = sim.current_a();
    meta.box_mpch = cfg.box_mpch;
    meta.grid = cfg.grid;
    probe(c, log, spans, "gio.write", [&] {
      mine.gio_write_bytes =
          gio::write_particles(c, particles_file, meta, actives).file_bytes;
    });
    tree::ParticleArray back;
    probe(c, log, spans, "gio.read", [&] {
      mine.gio_read_bytes =
          gio::read_particles(c, particles_file, back).payload_bytes;
    });
    tree::ParticleArray snapshot = sim.gather_active();
    if (c.rank() == 0) {
      double t0 = now_s();
      const bool ok = gio::verify_file(particles_file).ok;
      verify_s = now_s() - t0;
      spans.add("gio.verify", 0, t0, verify_s);
      if (!ok) ++unhealthy;
      cosmology::FofConfig fof;
      fof.box = static_cast<double>(cfg.grid);
      fof.mean_spacing = static_cast<double>(cfg.grid) /
                         static_cast<double>(cfg.particles_per_dim);
      t0 = now_s();
      halos_found = cosmology::find_halos(snapshot, fof).size();
      fof_s = now_s() - t0;
      spans.add("cosmology.fof", 0, t0, fof_s);
    }
  });

  res.attempted += static_cast<std::uint64_t>(cfg.steps + 2 * kProbeReps);
  res.failed += static_cast<std::uint64_t>(unhealthy);
  res.check("traced run stays healthy", unhealthy == 0,
            std::to_string(unhealthy) + " failed health checks");

  auto& m = res.metrics;
  const double nc = static_cast<double>(cfg.subcycles);
  const double step_wall = median(plain_walls);

  // tree
  std::vector<double> interactions, visits, parts;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    double i = 0, v = 0, p = 0;
    for (const auto& rc : counts) {
      i += static_cast<double>(rc.sr[static_cast<std::size_t>(rep)].interactions);
      v += static_cast<double>(rc.sr[static_cast<std::size_t>(rep)].walk_visits);
      p += static_cast<double>(rc.sr[static_cast<std::size_t>(rep)].particles);
    }
    interactions.push_back(i);
    visits.push_back(v);
    parts.push_back(p);
  }
  m["tree.build_s"] = log.busy("tree.build");
  m["tree.sr_s"] = log.busy("tree.sr");
  m["tree.interactions"] = median(interactions);
  m["tree.walk_visits"] = median(visits);
  m["tree.mean_neighbors"] = median(interactions) / median(parts);
  m["tree.rank_imbalance"] = log.imbalance("tree.sr");
  // Rate over the slowest rank's kernel time (the step waits for it).
  const double sr_wall = m["tree.sr_s"] * m["tree.rank_imbalance"];
  m["tree.ginteractions_per_s"] = median(interactions) / sr_wall / 1e9;
  m["tree.threads"] = ranks * omp_get_max_threads();
  m["tree.gflops"] = m["tree.ginteractions_per_s"] *
                     perfmodel::KernelInstructionMix{}.flops_per_interaction();

  // fft: 5 N log2 N flops per r2c + c2r pair (computed, not counted).
  const double n_cells = std::pow(static_cast<double>(cfg.grid), 3);
  m["fft.r2c_s"] = log.busy("fft.r2c");
  m["fft.c2r_s"] = log.busy("fft.c2r");
  m["fft.gflops"] = 5.0 * n_cells * std::log2(n_cells) /
                    (m["fft.r2c_s"] + m["fft.c2r_s"]) / 1e9;
  std::vector<double> fft_bytes;
  for (std::size_t i = 0; i < counts[0].fft_bytes.size(); ++i) {
    double b = 0;
    for (const auto& rc : counts) b += rc.fft_bytes[i];
    fft_bytes.push_back(b);
  }
  m["fft.bytes_per_call"] = median(fft_bytes);

  // mesh. CIC bytes are computed: per deposited particle 3 floats read and
  // 8 cells read+written (doubles); per interpolated particle 3 floats
  // read, 8 cells read, 1 float written.
  double actives = 0, locals = 0;
  for (const auto& rc : counts) {
    actives += static_cast<double>(rc.actives);
    locals += static_cast<double>(rc.locals);
  }
  m["mesh.poisson_solve_s"] = log.busy("mesh.poisson_solve");
  m["mesh.cic_deposit_s"] = log.busy("mesh.cic_deposit");
  m["mesh.cic_interp_s"] = log.busy("mesh.cic_interp");
  m["mesh.fold_ghosts_s"] = log.busy("mesh.fold_ghosts");
  m["mesh.fill_ghosts_s"] = log.busy("mesh.fill_ghosts");
  const double cic_bytes = actives * (12.0 + 8 * 16.0) +
                           locals * (12.0 + 8 * 8.0 + 4.0);
  m["mesh.cic_gbps"] =
      cic_bytes / (m["mesh.cic_deposit_s"] + m["mesh.cic_interp_s"]) / 1e9;

  // core
  std::vector<double> passive_frac;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    double a = 0, p = 0;
    for (const auto& rc : counts) {
      a += static_cast<double>(rc.refresh[static_cast<std::size_t>(rep)].active);
      p += static_cast<double>(rc.refresh[static_cast<std::size_t>(rep)].passive);
    }
    passive_frac.push_back(p / a);
  }
  double migrated = 0, comm_bytes = 0;
  for (const auto& rc : counts) {
    migrated += rc.migrated_last;
    comm_bytes += rc.comm_bytes_step;
  }
  m["core.refresh_s"] = log.busy("core.refresh");
  m["core.overload_frac"] = median(passive_frac);
  m["core.migrated"] = migrated;
  m["core.health_check_s"] = log.busy("core.health_check");

  // comm: waits after every call one step makes, weighted by how often the
  // step makes it.
  const double tree_wait =
      nc * (log.wait("tree.build") + log.wait("tree.sr"));
  const double mesh_wait =
      2.0 * (log.wait("mesh.cic_deposit") + log.wait("mesh.fold_ghosts") +
             log.wait("mesh.density_contrast") +
             log.wait("mesh.poisson_solve") +
             3.0 * (log.wait("mesh.fill_ghosts") + log.wait("mesh.cic_interp")));
  m["comm.wait_s"] = tree_wait + mesh_wait + log.wait("core.refresh");
  m["comm.bytes_per_step"] = comm_bytes;

  // cosmology
  m["cosmology.ic_s"] = log.busy("cosmology.ic");
  m["cosmology.power_spectrum_s"] = log.busy("cosmology.power_spectrum");

  // obs
  m["obs.ledger_record_s"] = log.busy("obs.ledger_record");
  m["obs.trace_overhead_frac"] = median(traced_walls) / step_wall;

  // Shares of the frozen step's wall. The Poisson solve contains one r2c
  // and three c2r transforms; they count as fft, the rest as mesh.
  const double fft_step = 2.0 * (m["fft.r2c_s"] + 3.0 * m["fft.c2r_s"]);
  const double solve_self =
      std::max(0.0, m["mesh.poisson_solve_s"] - m["fft.r2c_s"] -
                        3.0 * m["fft.c2r_s"]);
  const double mesh_step =
      2.0 * (m["mesh.cic_deposit_s"] + m["mesh.fold_ghosts_s"] +
             log.busy("mesh.density_contrast") + solve_self +
             3.0 * (m["mesh.fill_ghosts_s"] + m["mesh.cic_interp_s"]));
  m["tree.step_share"] = nc * (m["tree.build_s"] + m["tree.sr_s"]) / step_wall;
  m["fft.step_share"] = fft_step / step_wall;
  m["mesh.step_share"] = mesh_step / step_wall;
  m["core.step_share"] = m["core.refresh_s"] / step_wall;
  m["comm.step_share"] = m["comm.wait_s"] / step_wall;
  m["obs.uncovered_frac"] =
      1.0 - (m["tree.step_share"] + m["fft.step_share"] +
             m["mesh.step_share"] + m["core.step_share"] +
             m["comm.step_share"]);
  res.info["step_wall_s"] = fmt("%.6f", step_wall);

  if (io_dir.empty()) return;
  m["core.checkpoint_write_s"] = log.busy("core.checkpoint_write");
  m["core.checkpoint_read_s"] = log.busy("core.checkpoint_read");
  m["gio.write_mbps"] = static_cast<double>(counts[0].gio_write_bytes) /
                        log.busy("gio.write") / 1e6;
  m["gio.read_mbps"] = static_cast<double>(counts[0].gio_read_bytes) /
                       log.busy("gio.read") / 1e6;
  m["gio.verify_s"] = verify_s;
  m["cosmology.fof_s"] = fof_s;
  res.info["probe_halos"] = std::to_string(halos_found);
}

void run_treepm_clustered(const Args& args, Result& res, SpanLog& spans) {
  run_simulation(args, kTreepmClustered, res, spans);
}

void run_pm_dominated(const Args& args, Result& res, SpanLog& spans) {
  run_simulation(args, kPmDominated, res, spans);
}

}  // namespace perfbench
