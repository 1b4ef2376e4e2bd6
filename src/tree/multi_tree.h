// Multiple RCB trees per rank (paper Sec. VI, "The Future").
//
// "Next, we will improve (nodal) load balancing by using multiple trees at
// each rank, enabling an improved threading of the tree-build."
//
// MultiTree spatially partitions the rank-local particle set into 2^splits
// disjoint blocks with the same three-phase partition the tree build uses
// (so the SoA stays one contiguous, locality-ordered array), then builds an
// independent RCB tree per block — the builds are independent and run under
// OpenMP. Force evaluation walks *all* trees for each leaf's neighbor list,
// so the result is identical to a single tree over the whole set; only the
// build parallelism and the work granularity change.
#pragma once

#include <memory>
#include <vector>

#include "tree/force_kernel.h"
#include "tree/rcb_tree.h"

namespace hacc::tree {

struct MultiTreeConfig {
  /// Number of binary spatial splits: 2^splits trees. 0 = one tree.
  int splits = 3;
  RcbConfig rcb{};
};

class MultiTree {
 public:
  /// Partition + build; permutes the SoA in place like RcbTree.
  MultiTree(ParticleArray& particles, MultiTreeConfig config = {});

  const std::vector<RcbTree>& trees() const noexcept { return trees_; }
  const ParticleArray& particles() const noexcept { return *particles_; }

  /// Largest tree size / mean tree size: 1.0 = perfectly balanced builds.
  double build_imbalance() const noexcept;

  /// Gather every particle within rcut of `leaf` of tree `t`, searching all
  /// trees (cross-block neighbors included).
  void gather_neighbors(std::size_t t, std::uint32_t leaf_node, float rcut,
                        NeighborList& out,
                        std::size_t* visits = nullptr) const;

 private:
  ParticleArray* particles_;
  std::vector<RcbTree> trees_;
};

/// Short-range forces for every local particle: walk once per leaf (over
/// all trees), then run the kernel for the leaf's particles against the
/// shared list. `ax/ay/az` are indexed like the (tree-permuted) particle
/// array and are *overwritten*. Threaded over (tree, leaf) pairs with
/// OpenMP. Neighbor masses are scaled by `mass_scale` (the 1/(4 pi rho_bar)
/// code-unit normalization), folded into the kernel evaluation. `variant`
/// picks the inner loop (tile-batched vs scalar); a persistent `ws` keeps
/// the flattened work vector and per-thread neighbor lists across steps,
/// making the phase allocation-free in steady state.
InteractionStats compute_short_range_multi(
    const MultiTree& forest, const ShortRangeKernel& kernel,
    std::span<float> ax, std::span<float> ay, std::span<float> az,
    float mass_scale = 1.0f, KernelVariant variant = default_kernel_variant(),
    ShortRangeWorkspace* ws = nullptr);

}  // namespace hacc::tree
