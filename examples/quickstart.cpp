// Quickstart: a complete small cosmological N-body run through the public
// API — Zel'dovich initial conditions, the full PM + RCB-tree (PPTreePM)
// solver with sub-cycled symplectic stepping and particle overloading on a
// 4-rank simulated machine, and a measured power spectrum at the end.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "comm/comm.h"
#include "core/simulation.h"
#include "util/table.h"

int main() {
  using namespace hacc;

  // WMAP7-like cosmology (the defaults follow HACC's science runs).
  cosmology::Cosmology cosmo;

  core::SimulationConfig cfg;
  cfg.grid = 32;               // 32^3 PM grid
  cfg.particles_per_dim = 32;  // 32^3 particles
  cfg.box_mpch = 64.0;         // 64 Mpc/h box
  cfg.z_initial = 30.0;
  cfg.z_final = 0.5;
  cfg.steps = 8;      // long-range steps
  cfg.subcycles = 4;  // short-range sub-cycles per step (paper: n_c = 5-10)
  cfg.overload = 4.0; // particle replication depth in grid cells
  cfg.solver = core::ShortRangeSolver::kTreePP;  // "PPTreePM"
  cfg.seed = 2012;

  std::printf("HACC-style PPTreePM quickstart: %zu^3 particles, "
              "%.0f Mpc/h box, z=%.1f -> z=%.1f on 4 ranks\n\n",
              cfg.particles_per_dim, cfg.box_mpch, cfg.z_initial,
              cfg.z_final);

  comm::Machine::run(4, [&](comm::Comm& world) {
    core::Simulation sim(world, cosmo, cfg);
    sim.initialize();
    if (world.rank() == 0) {
      const auto census = sim.domain().census(sim.particles());
      std::printf("rank 0 after init: %zu active + %zu passive particles\n",
                  census[0], census[1]);
    }

    for (int s = 0; s < cfg.steps; ++s) {
      sim.step();
      sim.record_step_ledger();  // collective: per-phase time, reduced
      const auto& st = sim.last_stats();
      if (world.rank() == 0) {
        std::printf("step %d  z=%5.2f  leaves=%5zu  mean neighbors=%7.1f\n",
                    s + 1, sim.current_z(), st.leaves, st.mean_neighbors());
      }
    }

    // Final matter power spectrum.
    auto bins = sim.power_spectrum(12);
    if (world.rank() == 0) {
      std::printf("\nFinal matter power spectrum (z=%.2f):\n",
                  sim.current_z());
      Table t({"k [h/Mpc]", "P(k) [(Mpc/h)^3]", "modes"});
      for (const auto& b : bins)
        t.add_row({Table::fixed(b.k, 4), Table::fixed(b.power, 2),
                   Table::integer(static_cast<long long>(b.modes))});
      std::ostringstream os;
      t.print(os);
      std::fputs(os.str().c_str(), stdout);

      std::printf("\n");
      std::fflush(stdout);
      sim.ledger().print_phase_table(std::cout);
    }
  });
  return 0;
}
