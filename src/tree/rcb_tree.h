// Recursive coordinate bisection (RCB) tree (paper Sec. III).
//
// The two design principles from the paper:
//
//  Spatial locality — the tree is built by recursively splitting particles
//  in two at the center of mass along the longest side of the node's box,
//  *physically partitioning* the SoA arrays so that each node's particles
//  occupy a contiguous index range. Forces are then computed one leaf at a
//  time; all data touched is nearby in memory.
//
//  Walk minimization — leaves are "fat" (tens to hundreds of particles).
//  Every particle in a leaf shares one interaction list, so the relatively
//  slow pointer-chasing walk happens once per leaf while the highly tuned
//  vector kernel does the O(N_d^2) work.
//
// The partition step is the paper's three-phase scheme: phase 1 scans the
// split coordinate and records the swaps; phase 2 applies them to the six
// position/velocity arrays; phase 3 to the remaining arrays. Separating the
// phases turns the data movement into streaming passes that prefetch well
// and avoid read-after-write hazards.
//
// Short-range forces are evaluated through MultiTree (multi_tree.h); a
// forest with zero splits is exactly one tree over the whole array.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "tree/particles.h"

namespace hacc::tree {

struct RcbNode {
  std::array<float, 3> lo{};  ///< tight bounding box
  std::array<float, 3> hi{};
  std::uint32_t first = 0;  ///< index range [first, first+count) in the SoA
  std::uint32_t count = 0;
  std::int32_t left = -1;  ///< child node ids; -1 marks a leaf
  std::int32_t right = -1;
  bool is_leaf() const noexcept { return left < 0; }
};

/// Builds stop splitting at this depth; it guards against adversarial
/// distributions where center-of-mass splits shave off O(1) particles per
/// level, and bounds the walk stack.
inline constexpr std::size_t kMaxRcbDepth = 96;

struct RcbConfig {
  /// Target particles per leaf ("fat leaves": ~200 on BG/Q, up to 1e5 in
  /// the no-tree CPU/GPU limit).
  std::size_t leaf_size = 128;
};

/// Contiguous, aligned neighbor buffers shared by all particles of a leaf.
/// Doubles as the per-thread walk scratch: the traversal stack lives here
/// so a steady-state gather allocates nothing (capacities persist).
struct NeighborList {
  aligned_vector<float> x, y, z, m;
  std::vector<std::int32_t> walk_stack;  ///< tree-walk scratch, reused
  void clear() noexcept {
    x.clear();
    y.clear();
    z.clear();
    m.clear();
  }
  void reserve(std::size_t n) {
    x.reserve(n);
    y.reserve(n);
    z.reserve(n);
    m.reserve(n);
    // A depth-first walk holds at most one pending sibling per level.
    walk_stack.reserve(kMaxRcbDepth + 2);
  }
  std::size_t size() const noexcept { return x.size(); }
  std::size_t capacity() const noexcept { return x.capacity(); }
};

/// Statistics accumulated during a force evaluation.
struct InteractionStats {
  std::size_t leaves = 0;
  std::size_t particles = 0;
  std::size_t interactions = 0;  ///< particle-neighbor pairs fed to the kernel
  std::size_t walk_visits = 0;   ///< tree nodes touched by all walks
  double mean_neighbors() const noexcept {
    return particles ? static_cast<double>(interactions) /
                           static_cast<double>(particles)
                     : 0.0;
  }
};

/// Reusable scratch for the short-range kernel phase. A caller that keeps
/// one of these across steps makes the phase allocation-free in steady
/// state: the flattened (tree, leaf) work vector and the per-thread
/// neighbor lists retain their high-water capacity. Every per-thread list
/// is reserved to the *global* high-water mark `list_reserve` as soon as
/// the mark rises, so OpenMP dynamic scheduling handing a fat leaf to a
/// different thread than last step cannot trigger a regrow.
struct ShortRangeWorkspace {
  std::vector<std::pair<std::size_t, std::uint32_t>> work;
  std::vector<NeighborList> lists;  ///< one per OpenMP thread
  std::size_t list_reserve = 0;     ///< high-water neighbor-list capacity

  /// Grow to `nthreads` lists and pre-reserve each to the high-water mark.
  void prepare_lists(std::size_t nthreads) {
    if (lists.size() < nthreads) lists.resize(nthreads);
    for (auto& l : lists) l.reserve(list_reserve);
  }
  /// Fold this evaluation's capacities into the high-water mark, then
  /// bring every list up to it — a list that lagged the fattest thread
  /// would otherwise regrow on the next call.
  void record_high_water() {
    for (const auto& l : lists)
      if (l.capacity() > list_reserve) list_reserve = l.capacity();
    for (auto& l : lists) l.reserve(list_reserve);
  }
};

class RcbTree {
 public:
  /// Build over the particles, permuting the SoA in place.
  explicit RcbTree(ParticleArray& particles, RcbConfig config = {});

  /// Build over the index sub-range [first, first+count) only (the rest of
  /// the SoA is untouched). Node indices stay absolute, so several trees
  /// can share one particle array — the paper's planned "multiple trees at
  /// each rank" load-balancing improvement (Sec. VI); see MultiTree.
  RcbTree(ParticleArray& particles, std::uint32_t first, std::uint32_t count,
          RcbConfig config);

  const std::vector<RcbNode>& nodes() const noexcept { return nodes_; }
  const std::vector<std::uint32_t>& leaves() const noexcept { return leaves_; }
  const ParticleArray& particles() const noexcept { return *particles_; }
  std::size_t depth() const noexcept { return depth_; }

  /// Gather every particle within `rcut` of the box [lo, hi] into `out`
  /// (appending when `append` is set). `visits` (optional) counts nodes
  /// touched. This is the walk the fat-leaf design minimizes; MultiTree
  /// runs it over every tree for a leaf's box.
  void gather_neighbors_into(const std::array<float, 3>& lo,
                             const std::array<float, 3>& hi, float rcut,
                             NeighborList& out, std::size_t* visits = nullptr,
                             bool append = false) const;

  /// Squared distance between a point and a node's box (0 inside).
  static float box_distance2(const RcbNode& node,
                             const std::array<float, 3>& lo,
                             const std::array<float, 3>& hi) noexcept;

 private:
  void build(RcbConfig config, std::uint32_t first, std::uint32_t count);

  ParticleArray* particles_;
  std::vector<RcbNode> nodes_;
  std::vector<std::uint32_t> leaves_;
  std::size_t depth_ = 0;
};

/// The paper's three-phase partition of [first, first+count) about `split`
/// along `dim` (phase 1 records swaps scanning the split coordinate, phase
/// 2 applies them to the six position/velocity arrays, phase 3 to the
/// rest). Returns the size of the "below" side. `swaps` is caller-provided
/// scratch.
std::uint32_t three_phase_partition(
    ParticleArray& particles, std::uint32_t first, std::uint32_t count,
    int dim, float split,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& swaps);

}  // namespace hacc::tree
