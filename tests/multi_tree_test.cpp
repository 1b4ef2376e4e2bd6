// Tests for the Sec.-VI extensions: multiple RCB trees per rank and the
// threaded CIC deposit. The contract for both: the same results as the
// direct-summation oracle / serial deposit (up to float summation order).
// Also home of the short-range steady-state allocation gate (this binary
// replaces the global allocator to count, like fft_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>

#include "comm/comm.h"
#include "core/simulation.h"
#include "mesh/cic.h"
#include "tree/direct.h"
#include "tree/force_matcher.h"
#include "tree/multi_tree.h"
#include "util/rng.h"

namespace alloc_hook {
std::atomic<bool> armed{false};
std::atomic<std::size_t> count{0};

void note() {
  if (armed.load(std::memory_order_relaxed))
    count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace alloc_hook

// GCC does not model user-replaced global operators and flags the
// new-from-malloc / delete-to-free pairing, which is exactly the C++
// replacement contract here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  alloc_hook::note();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  alloc_hook::note();
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hacc::tree {
namespace {

ParticleArray random_particles(std::size_t n, float box, std::uint64_t seed) {
  ParticleArray p;
  p.reserve(n);
  Philox rng(seed);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.gaussian()),
                static_cast<float>(s.gaussian()),
                static_cast<float>(s.gaussian()), 1.0f, i);
  }
  return p;
}

// ---- sub-range tree builds ----------------------------------------------------

TEST(SubRangeTree, BuildsOnlyTheRangeAndLeavesRestUntouched) {
  ParticleArray p = random_particles(300, 10.0f, 1);
  const auto before = p;  // copy
  RcbTree tree(p, 100, 100, RcbConfig{16});
  // Nodes' index ranges stay within [100, 200).
  for (const auto& n : tree.nodes()) {
    EXPECT_GE(n.first, 100u);
    EXPECT_LE(n.first + n.count, 200u);
  }
  // Particles outside the range are untouched.
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(p.id[i], before.id[i]);
  for (std::size_t i = 200; i < 300; ++i) EXPECT_EQ(p.id[i], before.id[i]);
  // The range itself is a permutation of the original range.
  std::set<std::uint64_t> ids(p.id.begin() + 100, p.id.begin() + 200);
  std::set<std::uint64_t> expect(before.id.begin() + 100,
                                 before.id.begin() + 200);
  EXPECT_EQ(ids, expect);
}

TEST(SubRangeTree, EmptyRangeGivesEmptyTree) {
  ParticleArray p = random_particles(10, 5.0f, 2);
  RcbTree tree(p, 5, 0, RcbConfig{4});
  EXPECT_TRUE(tree.nodes().empty());
}

TEST(ThreePhasePartition, SplitsByCoordinate) {
  ParticleArray p = random_particles(200, 8.0f, 3);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;
  const std::uint32_t below =
      three_phase_partition(p, 0, 200, /*dim=*/1, 4.0f, swaps);
  for (std::uint32_t i = 0; i < below; ++i) EXPECT_LT(p.y[i], 4.0f);
  for (std::uint32_t i = below; i < 200; ++i) EXPECT_GE(p.y[i], 4.0f);
  EXPECT_TRUE(p.consistent());
}

// ---- MultiTree ------------------------------------------------------------------

class MultiTreeSplits : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Splits, MultiTreeSplits,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST_P(MultiTreeSplits, ForcesMatchDirectSummation) {
  // The forest gathers every particle within the hand-over radius, across
  // all trees, so for any split count it must agree with the O(N^2) direct
  // sum to float round-off (summation order differs).
  const int splits = GetParam();
  ParticleArray p = random_particles(1200, 14.0f, 7);
  ShortRangeKernel kernel;
  kernel.softening = 0.05f;
  kernel.fgrid = default_fgrid_poly5();

  MultiTree forest(p, MultiTreeConfig{splits, RcbConfig{32}});
  EXPECT_EQ(forest.trees().size(), 1u << splits);
  std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
  const auto stats = compute_short_range_multi(forest, kernel, ax, ay, az);
  EXPECT_EQ(stats.particles, p.size());

  std::vector<float> dx(p.size()), dy(p.size()), dz(p.size());
  direct_short_range(p, kernel, dx, dy, dz);
  double max_err = 0, scale = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    max_err = std::max({max_err, std::abs(static_cast<double>(ax[i] - dx[i])),
                        std::abs(static_cast<double>(ay[i] - dy[i])),
                        std::abs(static_cast<double>(az[i] - dz[i]))});
    scale = std::max(scale, std::abs(static_cast<double>(dx[i])));
  }
  EXPECT_LT(max_err, 5e-4 * (scale + 1.0)) << "splits=" << splits;
}

TEST(MultiTree, BlocksAreBalanced) {
  ParticleArray p = random_particles(4000, 20.0f, 9);
  MultiTree forest(p, MultiTreeConfig{3, RcbConfig{32}});
  // Midpoint splits of a uniform set: no tree should dominate.
  EXPECT_LT(forest.build_imbalance(), 2.0);
  // Every particle in exactly one tree.
  std::size_t total = 0;
  for (const auto& t : forest.trees()) {
    if (!t.nodes().empty()) total += t.nodes().front().count;
  }
  EXPECT_EQ(total, p.size());
}

TEST(MultiTree, CoincidentParticlesDegradeGracefully) {
  ParticleArray p;
  for (int i = 0; i < 64; ++i)
    p.push_back(1.0f, 1.0f, 1.0f, 0, 0, 0, 1.0f,
                static_cast<std::uint64_t>(i));
  MultiTree forest(p, MultiTreeConfig{3, RcbConfig{8}});
  EXPECT_GE(forest.trees().size(), 1u);
}

// ---- threaded CIC -----------------------------------------------------------------

TEST(ThreadedCic, MatchesSerialDeposit) {
  const std::size_t n = 16;
  mesh::BlockDecomp3D d({n, n, n}, comm::Cart3D({1, 1, 1}));
  Philox rng(11);
  Philox::Stream s(rng);
  std::vector<float> xs, ys, zs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(static_cast<float>(s.uniform(0, n)));
    ys.push_back(static_cast<float>(s.uniform(0, n)));
    zs.push_back(static_cast<float>(s.uniform(0, n)));
  }
  mesh::DistGrid serial(d, 0, 2), threaded(d, 0, 2);
  mesh::cic_deposit(serial, xs, ys, zs, 1.5f);
  mesh::cic_deposit_threaded(threaded, xs, ys, zs, 1.5f);
  for (std::size_t i = 0; i < serial.data().size(); ++i)
    EXPECT_NEAR(threaded.data()[i], serial.data()[i],
                1e-9 * (std::abs(serial.data()[i]) + 1.0));
}

// ---- kernel variants over the forest ----------------------------------------

TEST(MultiTreeKernel, VariantsAgreeAndStatsAreIdentical) {
  // Batched and scalar dispatch must feed the kernel the exact same
  // interaction set (identical InteractionStats — padding is invisible)
  // and agree on forces to float-summation-order rounding.
  ParticleArray p = random_particles(3000, 12.0f, 21);
  MultiTree forest(p, MultiTreeConfig{2, RcbConfig{64}});
  ShortRangeKernel kernel;
  kernel.fgrid = default_fgrid_poly5();
  std::vector<float> sx(p.size()), sy(p.size()), sz(p.size());
  std::vector<float> bx(p.size()), by(p.size()), bz(p.size());
  const auto stats_s = compute_short_range_multi(
      forest, kernel, sx, sy, sz, 0.73f, KernelVariant::kScalar);
  const auto stats_b = compute_short_range_multi(
      forest, kernel, bx, by, bz, 0.73f, KernelVariant::kBatched);
  EXPECT_EQ(stats_s.leaves, stats_b.leaves);
  EXPECT_EQ(stats_s.particles, stats_b.particles);
  EXPECT_EQ(stats_s.interactions, stats_b.interactions);
  EXPECT_EQ(stats_s.walk_visits, stats_b.walk_visits);
  double max_rel = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double mag =
        std::sqrt(static_cast<double>(sx[i]) * sx[i] +
                  static_cast<double>(sy[i]) * sy[i] +
                  static_cast<double>(sz[i]) * sz[i]);
    const double dx = static_cast<double>(bx[i]) - sx[i];
    const double dy = static_cast<double>(by[i]) - sy[i];
    const double dz = static_cast<double>(bz[i]) - sz[i];
    const double diff = std::sqrt(dx * dx + dy * dy + dz * dz);
    if (mag > 1e-20) max_rel = std::max(max_rel, diff / mag);
  }
  EXPECT_LE(max_rel, 1e-5);
}

TEST(MultiTreeKernel, SteadyStateShortRangeIsAllocationFree) {
  // Satellite guarantee: with a persistent workspace, the short-range
  // phase allocates nothing after the first (warmup) step — the flattened
  // (tree, leaf) work vector and every per-thread neighbor list are
  // reserved to their high-water marks and reused.
  // Splits 0 (one tree, the simulation's default) and 2 (a forest); every
  // OpenMP thread count must hold, not just one.
  ShortRangeKernel kernel;
  kernel.fgrid = default_fgrid_poly5();
  for (const int splits : {0, 2}) {
    ParticleArray p = random_particles(4000, 14.0f, 22);
    MultiTree forest(p, MultiTreeConfig{splits, RcbConfig{48}});
    std::vector<float> ax(p.size()), ay(p.size()), az(p.size());
    ShortRangeWorkspace ws;
    for (const auto variant :
         {KernelVariant::kBatched, KernelVariant::kScalar}) {
      // Warmup populates the workspace (and the OpenMP team, first time).
      compute_short_range_multi(forest, kernel, ax, ay, az, 1.0f, variant,
                                &ws);
      alloc_hook::count.store(0);
      alloc_hook::armed.store(true);
      compute_short_range_multi(forest, kernel, ax, ay, az, 1.0f, variant,
                                &ws);
      alloc_hook::armed.store(false);
      EXPECT_EQ(alloc_hook::count.load(), 0u)
          << "steady-state allocation at splits=" << splits << " in variant "
          << kernel_variant_name(variant);
    }
  }
}

// ---- full simulation equivalence -----------------------------------------------

TEST(SimulationExtensions, MultiTreeAndThreadedCicReproduceBaseline) {
  core::SimulationConfig base;
  base.grid = 16;
  base.particles_per_dim = 16;
  base.box_mpch = 32.0;
  base.z_initial = 30.0;
  base.z_final = 10.0;
  base.steps = 2;
  base.subcycles = 2;
  base.overload = 3.0;
  base.solver = core::ShortRangeSolver::kTreePP;
  cosmology::Cosmology cosmo;

  auto run = [&](int splits, bool threaded) {
    core::SimulationConfig cfg = base;
    cfg.tree_splits = splits;
    cfg.threaded_deposit = threaded;
    std::vector<std::array<float, 3>> by_id(16 * 16 * 16);
    comm::Machine::run(1, [&](comm::Comm& c) {
      core::Simulation sim(c, cosmo, cfg);
      sim.initialize();
      sim.run();
      const auto& p = sim.particles();
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p.role[i] == Role::kActive)
          by_id[p.id[i]] = {p.x[i], p.y[i], p.z[i]};
      }
    });
    return by_id;
  };
  const auto baseline = run(0, false);
  const auto extended = run(2, true);
  double max_err = 0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      double diff = std::abs(static_cast<double>(
          baseline[i][static_cast<std::size_t>(d)] -
          extended[i][static_cast<std::size_t>(d)]));
      diff = std::min(diff, 16.0 - diff);
      max_err = std::max(max_err, diff);
    }
  }
  EXPECT_LT(max_err, 2e-3);
}

}  // namespace
}  // namespace hacc::tree
