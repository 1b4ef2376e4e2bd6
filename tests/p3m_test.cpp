// Tests for the P3M chaining-mesh short-range solver: correctness vs direct
// summation, agreement with the RCB tree solver (the paper's
// cross-algorithm validation, Sec. II), and configuration checks.
#include <gtest/gtest.h>

#include <cmath>

#include "p3m/chaining_mesh.h"
#include "tree/direct.h"
#include "tree/force_matcher.h"
#include "tree/multi_tree.h"
#include "util/rng.h"

namespace hacc::p3m {
namespace {

using tree::ParticleArray;
using tree::ShortRangeKernel;

ParticleArray random_particles(std::size_t n, float box, std::uint64_t seed) {
  ParticleArray p;
  p.reserve(n);
  Philox rng(seed);
  Philox::Stream s(rng);
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.uniform(0, box)),
                static_cast<float>(s.uniform(0, box)), 0, 0, 0, 1.0f, i);
  }
  return p;
}

ShortRangeKernel default_kernel() {
  ShortRangeKernel k;
  k.softening = 0.05f;
  k.fgrid = tree::default_fgrid_poly5();
  return k;
}

class P3mSizes : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Counts, P3mSizes,
                         ::testing::Values(1, 10, 100, 500, 2000));

TEST_P(P3mSizes, MatchesDirectSummation) {
  const std::size_t n = GetParam();
  ParticleArray p = random_particles(n, 15.0f, 7 + n);
  const auto kernel = default_kernel();
  std::vector<float> ax(n), ay(n), az(n), dx(n), dy(n), dz(n);
  const auto stats = compute_short_range_p3m(p, kernel, ax, ay, az);
  EXPECT_EQ(stats.particles, n);
  tree::direct_short_range(p, kernel, dx, dy, dz);
  double max_err = 0, scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_err = std::max({max_err, std::abs(static_cast<double>(ax[i] - dx[i])),
                        std::abs(static_cast<double>(ay[i] - dy[i])),
                        std::abs(static_cast<double>(az[i] - dz[i]))});
    scale = std::max({scale, std::abs(static_cast<double>(dx[i])),
                      std::abs(static_cast<double>(dy[i])),
                      std::abs(static_cast<double>(dz[i]))});
  }
  EXPECT_LT(max_err, 2e-4 * (scale + 1.0));
}

TEST(P3m, AgreesWithRcbTreeSolver) {
  // The paper validates P3M against PPTreePM; at the force level the two
  // must agree to round-off, since both sum the identical kernel over all
  // pairs within the hand-over radius.
  const std::size_t n = 1500;
  ParticleArray p1 = random_particles(n, 20.0f, 42);
  ParticleArray p2 = p1;
  const auto kernel = default_kernel();
  std::vector<float> ax1(n), ay1(n), az1(n), ax2(n), ay2(n), az2(n);
  compute_short_range_p3m(p1, kernel, ax1, ay1, az1);
  tree::MultiTree tr(p2, tree::MultiTreeConfig{0, tree::RcbConfig{64}});
  tree::compute_short_range_multi(tr, kernel, ax2, ay2, az2);
  // p2 was permuted by the build: compare by particle id.
  std::vector<std::size_t> slot(n);
  for (std::size_t i = 0; i < n; ++i) slot[p2.id[i]] = i;
  double max_err = 0, scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = slot[p1.id[i]];
    max_err =
        std::max({max_err, std::abs(static_cast<double>(ax1[i] - ax2[j])),
                  std::abs(static_cast<double>(ay1[i] - ay2[j])),
                  std::abs(static_cast<double>(az1[i] - az2[j]))});
    scale = std::max(scale, std::abs(static_cast<double>(ax1[i])));
  }
  EXPECT_LT(max_err, 5e-4 * (scale + 1.0));
}

TEST(P3m, LargerCellsAllowed) {
  // Any cell size >= rmax is valid; forces must be identical.
  const std::size_t n = 400;
  ParticleArray p = random_particles(n, 12.0f, 3);
  const auto kernel = default_kernel();
  std::vector<float> a1(n), a2(n), tmp(n), tmp2(n), tmp3(n), tmp4(n);
  compute_short_range_p3m(p, kernel, a1, tmp, tmp2, 1.0f, P3mConfig{3.0f});
  compute_short_range_p3m(p, kernel, a2, tmp3, tmp4, 1.0f, P3mConfig{5.5f});
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(a1[i], a2[i], 1e-4f * (std::abs(a1[i]) + 1e-3f));
}

TEST(P3m, RejectsCellSmallerThanCutoff) {
  ParticleArray p = random_particles(10, 5.0f, 1);
  const auto kernel = default_kernel();
  std::vector<float> a(10), b(10), c(10);
  EXPECT_THROW(
      compute_short_range_p3m(p, kernel, a, b, c, 1.0f, P3mConfig{2.0f}),
      Error);
}

TEST(P3m, EmptyInputIsFine) {
  ParticleArray p;
  const auto kernel = default_kernel();
  std::vector<float> a, b, c;
  const auto stats = compute_short_range_p3m(p, kernel, a, b, c);
  EXPECT_EQ(stats.interactions, 0u);
}

TEST(P3m, MomentumConserved) {
  const std::size_t n = 800;
  ParticleArray p = random_particles(n, 10.0f, 55);
  const auto kernel = default_kernel();
  std::vector<float> ax(n), ay(n), az(n);
  compute_short_range_p3m(p, kernel, ax, ay, az);
  double sx = 0, sy = 0, sz = 0, scale = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += ax[i];
    sy += ay[i];
    sz += az[i];
    scale += std::abs(ax[i]) + std::abs(ay[i]) + std::abs(az[i]);
  }
  EXPECT_LT(std::abs(sx), 1e-5 * scale + 1e-6);
  EXPECT_LT(std::abs(sy), 1e-5 * scale + 1e-6);
  EXPECT_LT(std::abs(sz), 1e-5 * scale + 1e-6);
}

}  // namespace
}  // namespace hacc::p3m
