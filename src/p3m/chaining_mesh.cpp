#include "p3m/chaining_mesh.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/costmap.h"
#include "obs/obs.h"
#include "tree/interaction_batch.h"
#include "util/telemetry.h"

namespace hacc::p3m {

using tree::InteractionStats;
using tree::NeighborList;
using tree::ParticleArray;
using tree::ShortRangeKernel;

namespace {

struct Mesh {
  std::array<float, 3> lo{};
  std::array<int, 3> ncells{};
  float cell = 1.0f;

  int cell_of(float x, float y, float z) const noexcept {
    auto clampc = [&](float v, int axis) {
      int c = static_cast<int>((v - lo[static_cast<std::size_t>(axis)]) / cell);
      return std::clamp(c, 0, ncells[static_cast<std::size_t>(axis)] - 1);
    };
    const int ix = clampc(x, 0), iy = clampc(y, 1), iz = clampc(z, 2);
    return (ix * ncells[1] + iy) * ncells[2] + iz;
  }
};

}  // namespace

InteractionStats compute_short_range_p3m(const ParticleArray& p,
                                         const ShortRangeKernel& kernel,
                                         std::span<float> ax,
                                         std::span<float> ay,
                                         std::span<float> az,
                                         float mass_scale,
                                         const P3mConfig& config,
                                         tree::KernelVariant variant) {
  const std::size_t n = p.size();
  HACC_CHECK(ax.size() == n && ay.size() == n && az.size() == n);
  HACC_CHECK_MSG(config.cell_size >= kernel.rmax,
                 "P3M cell size must cover the hand-over radius");
  InteractionStats stats;
  stats.particles = n;
  if (n == 0) return stats;

  // Mesh over the particle bounding box.
  Mesh mesh;
  mesh.cell = config.cell_size;
  std::array<float, 3> hi{std::numeric_limits<float>::lowest(),
                          std::numeric_limits<float>::lowest(),
                          std::numeric_limits<float>::lowest()};
  mesh.lo = {std::numeric_limits<float>::max(),
             std::numeric_limits<float>::max(),
             std::numeric_limits<float>::max()};
  for (std::size_t i = 0; i < n; ++i) {
    mesh.lo[0] = std::min(mesh.lo[0], p.x[i]);
    hi[0] = std::max(hi[0], p.x[i]);
    mesh.lo[1] = std::min(mesh.lo[1], p.y[i]);
    hi[1] = std::max(hi[1], p.y[i]);
    mesh.lo[2] = std::min(mesh.lo[2], p.z[i]);
    hi[2] = std::max(hi[2], p.z[i]);
  }
  for (int d = 0; d < 3; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    mesh.ncells[sd] = std::max(
        1, static_cast<int>(std::floor((hi[sd] - mesh.lo[sd]) / mesh.cell)) +
               1);
  }
  const std::size_t total_cells =
      static_cast<std::size_t>(mesh.ncells[0]) *
      static_cast<std::size_t>(mesh.ncells[1]) *
      static_cast<std::size_t>(mesh.ncells[2]);
  stats.leaves = total_cells;

  // Counting sort: particle indices grouped by cell.
  std::vector<std::uint32_t> cell_start(total_cells + 1, 0);
  std::vector<int> cell_index(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell_index[i] = mesh.cell_of(p.x[i], p.y[i], p.z[i]);
    ++cell_start[static_cast<std::size_t>(cell_index[i]) + 1];
  }
  for (std::size_t c = 0; c < total_cells; ++c)
    cell_start[c + 1] += cell_start[c];
  std::vector<std::uint32_t> order(n);
  {
    std::vector<std::uint32_t> cursor(cell_start.begin(),
                                      cell_start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      order[cursor[static_cast<std::size_t>(cell_index[i])]++] =
          static_cast<std::uint32_t>(i);
  }

  // Captured on the rank thread: OpenMP workers don't inherit the binding.
  // P3M "leaves" are chaining-mesh cells; the recorded box is the cell box.
  obs::CostMap* cost = obs::cost_map();

  std::size_t interactions = 0, visits = 0;
#pragma omp parallel reduction(+ : interactions, visits)
  {
    NeighborList list;
#pragma omp for schedule(dynamic, 1)
    for (std::size_t c = 0; c < total_cells; ++c) {
      const std::uint32_t begin = cell_start[c];
      const std::uint32_t end = cell_start[c + 1];
      if (begin == end) continue;
      const int cz = static_cast<int>(c) % mesh.ncells[2];
      const int cy = (static_cast<int>(c) / mesh.ncells[2]) % mesh.ncells[1];
      const int cx = static_cast<int>(c) / (mesh.ncells[1] * mesh.ncells[2]);
      // Gather the 27-cell neighborhood into contiguous buffers (clipped at
      // the mesh edge; no periodic wrap — overloading provides replicas).
      list.clear();
      for (int dx = -1; dx <= 1; ++dx)
        for (int dy = -1; dy <= 1; ++dy)
          for (int dz = -1; dz <= 1; ++dz) {
            const int nx = cx + dx, ny = cy + dy, nz = cz + dz;
            if (nx < 0 || ny < 0 || nz < 0 || nx >= mesh.ncells[0] ||
                ny >= mesh.ncells[1] || nz >= mesh.ncells[2])
              continue;
            ++visits;
            const std::size_t nc = static_cast<std::size_t>(
                (nx * mesh.ncells[1] + ny) * mesh.ncells[2] + nz);
            for (std::uint32_t k = cell_start[nc]; k < cell_start[nc + 1];
                 ++k) {
              const std::uint32_t j = order[k];
              list.x.push_back(p.x[j]);
              list.y.push_back(p.y[j]);
              list.z.push_back(p.z[j]);
              list.m.push_back(p.mass[j]);
            }
          }
      // True gathered count, before the batched path pads the list;
      // mass_scale is folded into the kernel, not baked into the list.
      const std::size_t true_n = list.size();
      const std::uint64_t t0 = cost != nullptr ? util::now_ns() : 0;
      tree::evaluate_leaf_indexed(
          variant, kernel, p,
          std::span<const std::uint32_t>(order.data() + begin, end - begin),
          list, mass_scale, ax, ay, az);
      const std::size_t pp = static_cast<std::size_t>(end - begin) * true_n;
      if (cost != nullptr) {
        const std::array<float, 3> cell_lo{
            mesh.lo[0] + static_cast<float>(cx) * mesh.cell,
            mesh.lo[1] + static_cast<float>(cy) * mesh.cell,
            mesh.lo[2] + static_cast<float>(cz) * mesh.cell};
        const std::array<float, 3> cell_hi{cell_lo[0] + mesh.cell,
                                           cell_lo[1] + mesh.cell,
                                           cell_lo[2] + mesh.cell};
        cost->record(obs::LeafCost{cell_lo, cell_hi, end - begin, pp,
                                   util::now_ns() - t0});
      }
      interactions += pp;
    }
  }
  stats.interactions = interactions;
  stats.walk_visits = visits;
  return stats;
}

}  // namespace hacc::p3m
