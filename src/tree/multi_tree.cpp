#include "tree/multi_tree.h"

#include <algorithm>
#include <limits>

#include "obs/costmap.h"
#include "obs/obs.h"
#include "tree/interaction_batch.h"
#include "util/telemetry.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hacc::tree {

namespace {

struct Block {
  std::uint32_t first, count;
};

}  // namespace

MultiTree::MultiTree(ParticleArray& particles, MultiTreeConfig config)
    : particles_(&particles) {
  HACC_CHECK(config.splits >= 0 && config.splits <= 8);
  const auto n = static_cast<std::uint32_t>(particles.size());

  // Recursively bisect the particle set spatially (midpoint of the longest
  // bounding-box side; midpoint rather than center-of-mass keeps the block
  // *volumes* comparable, which is what the per-tree walks care about).
  std::vector<Block> blocks{{0, n}};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;
  for (int s = 0; s < config.splits; ++s) {
    std::vector<Block> next;
    next.reserve(blocks.size() * 2);
    for (const Block& b : blocks) {
      if (b.count < 2) {
        next.push_back(b);
        continue;
      }
      // Bounding box of this block.
      std::array<float, 3> lo{std::numeric_limits<float>::max(),
                              std::numeric_limits<float>::max(),
                              std::numeric_limits<float>::max()};
      std::array<float, 3> hi{std::numeric_limits<float>::lowest(),
                              std::numeric_limits<float>::lowest(),
                              std::numeric_limits<float>::lowest()};
      for (std::uint32_t i = b.first; i < b.first + b.count; ++i) {
        lo[0] = std::min(lo[0], particles.x[i]);
        hi[0] = std::max(hi[0], particles.x[i]);
        lo[1] = std::min(lo[1], particles.y[i]);
        hi[1] = std::max(hi[1], particles.y[i]);
        lo[2] = std::min(lo[2], particles.z[i]);
        hi[2] = std::max(hi[2], particles.z[i]);
      }
      int dim = 0;
      for (int d = 1; d < 3; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        if (hi[sd] - lo[sd] > hi[static_cast<std::size_t>(dim)] -
                                  lo[static_cast<std::size_t>(dim)])
          dim = d;
      }
      const float split = 0.5f * (lo[static_cast<std::size_t>(dim)] +
                                  hi[static_cast<std::size_t>(dim)]);
      const std::uint32_t below = three_phase_partition(
          particles, b.first, b.count, dim, split, swaps);
      if (below == 0 || below == b.count) {
        next.push_back(b);  // degenerate (coincident particles)
        continue;
      }
      next.push_back(Block{b.first, below});
      next.push_back(Block{b.first + below, b.count - below});
    }
    blocks = std::move(next);
  }

  // Independent per-block builds — this is the loop the BG/Q would thread.
  trees_.reserve(blocks.size());
  for (const Block& b : blocks) trees_.emplace_back(particles, b.first, b.count, config.rcb);
}

double MultiTree::build_imbalance() const noexcept {
  if (trees_.empty()) return 1.0;
  std::size_t largest = 0, total = 0;
  for (const auto& t : trees_) {
    const std::size_t c =
        t.nodes().empty() ? 0 : t.nodes().front().count;
    largest = std::max(largest, c);
    total += c;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(trees_.size());
  return mean > 0 ? static_cast<double>(largest) / mean : 1.0;
}

void MultiTree::gather_neighbors(std::size_t t, std::uint32_t leaf_node,
                                 float rcut, NeighborList& out,
                                 std::size_t* visits) const {
  out.clear();
  const RcbNode& leaf = trees_[t].nodes()[leaf_node];
  for (const auto& tree : trees_) {
    if (tree.nodes().empty()) continue;
    // Prune whole foreign trees by root-box distance.
    if (RcbTree::box_distance2(tree.nodes().front(), leaf.lo, leaf.hi) >
        rcut * rcut)
      continue;
    tree.gather_neighbors_into(leaf.lo, leaf.hi, rcut, out, visits,
                               /*append=*/true);
  }
}

InteractionStats compute_short_range_multi(const MultiTree& forest,
                                           const ShortRangeKernel& kernel,
                                           std::span<float> ax,
                                           std::span<float> ay,
                                           std::span<float> az,
                                           float mass_scale,
                                           KernelVariant variant,
                                           ShortRangeWorkspace* ws) {
  const ParticleArray& p = forest.particles();
  HACC_CHECK(ax.size() == p.size() && ay.size() == p.size() &&
             az.size() == p.size());
  ShortRangeWorkspace local;
  ShortRangeWorkspace& wsp = ws != nullptr ? *ws : local;
  // Flatten (tree, leaf) pairs for one dynamic OpenMP loop; the vector is
  // reused (capacity kept) across steps when a workspace is passed.
  wsp.work.clear();
  for (std::size_t t = 0; t < forest.trees().size(); ++t)
    for (auto leaf : forest.trees()[t].leaves()) wsp.work.emplace_back(t, leaf);
#ifdef _OPENMP
  wsp.prepare_lists(static_cast<std::size_t>(omp_get_max_threads()));
#else
  wsp.prepare_lists(1);
#endif
  const auto& work = wsp.work;

  InteractionStats stats;
  stats.particles = p.size();
  stats.leaves = work.size();
  // Captured on the rank thread: OpenMP workers don't inherit the binding.
  obs::CostMap* cost = obs::cost_map();

  std::size_t interactions = 0, visits = 0;
#pragma omp parallel reduction(+ : interactions, visits)
  {
#ifdef _OPENMP
    NeighborList& list =
        wsp.lists[static_cast<std::size_t>(omp_get_thread_num())];
#else
    NeighborList& list = wsp.lists[0];
#endif
#pragma omp for schedule(dynamic, 1)
    for (std::size_t w = 0; w < work.size(); ++w) {
      const auto [t, leaf_id] = work[w];
      const RcbNode& leaf = forest.trees()[t].nodes()[leaf_id];
      forest.gather_neighbors(t, leaf_id, kernel.rmax, list, &visits);
      // True gathered count, before the batched path pads the list.
      const std::size_t true_n = list.size();
      const std::uint64_t t0 = cost != nullptr ? util::now_ns() : 0;
      evaluate_leaf(variant, kernel, p, leaf.first, leaf.count, list,
                    mass_scale, ax, ay, az);
      const std::size_t pp = static_cast<std::size_t>(leaf.count) * true_n;
      if (cost != nullptr)
        cost->record(obs::LeafCost{leaf.lo, leaf.hi, leaf.count, pp,
                                   util::now_ns() - t0});
      interactions += pp;
    }
  }
  wsp.record_high_water();
  stats.interactions = interactions;
  stats.walk_visits = visits;
  return stats;
}

}  // namespace hacc::tree
