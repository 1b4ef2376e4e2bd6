// Particle overloading (paper Sec. II, Fig. 4).
//
// HACC's spatial domain decomposition is regular (non-cubic) 3-D blocks,
// but unlike the guard zones of a typical PM method, *full particle
// replication* is employed across domain boundaries: every rank stores,
// besides its own ("active", green in Fig. 4) particles, complete copies of
// all neighbor particles within the overload depth of its boundary
// ("passive", red). Passive particles are moved by interpolated forces but
// never deposited in the Poisson solve; they switch roles as they cross
// domain boundaries. The payoff: medium/long-range force calculations need
// no particle communication at all, and the short-range solver becomes a
// purely rank-local ("on-node") method that can be swapped per architecture
// with guaranteed scalability.
//
// Passive replicas are stored with *unwrapped* coordinates in the receiving
// rank's frame (a replica from across the periodic seam sits at x < 0 or
// x >= N), so short-range pair distances need no minimum-image logic.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "comm/comm.h"
#include "mesh/grid.h"
#include "tree/particles.h"

namespace hacc::core {

struct RefreshStats {
  std::size_t active = 0;     ///< active particles after the refresh
  std::size_t passive = 0;    ///< passive replicas after the refresh
  std::size_t migrated = 0;   ///< actives that changed owner
  double overload_fraction() const noexcept {
    return active ? static_cast<double>(passive) / static_cast<double>(active)
                  : 0.0;
  }
};

class OverloadDomain {
 public:
  /// `overload` is the replication depth in grid units; it must not exceed
  /// the smallest domain extent along any axis.
  OverloadDomain(const mesh::BlockDecomp3D& decomp, int rank,
                 double overload);

  const mesh::BlockDecomp3D& decomp() const noexcept { return decomp_; }
  const fft::Box3D& box() const noexcept { return box_; }
  double overload() const noexcept { return overload_; }
  int rank() const noexcept { return rank_; }

  /// True if a (wrapped, in [0,N)) position belongs to this rank's domain.
  bool owns(float x, float y, float z) const noexcept;

  /// Full overloading refresh (collective):
  ///  1. drop all passive replicas and wrap active positions into [0, N),
  ///  2. for every active, work out its (possibly new) owner and all
  ///     passive-replica destinations — the owner's 26 neighbor images
  ///     whose overload slab contains it — and pack role-tagged packets
  ///     directly into one flat send buffer,
  ///  3. perform ONE sparse neighbor_alltoallv over the refresh stencil
  ///     (migration + replication fused: a single exchange per refresh,
  ///     cost scaling with the neighbor count, not the world size),
  ///  4. sort the whole array into canonical (id) order, so the particle
  ///     ordering — and every float summation order downstream — does not
  ///     depend on arrival/removal history: a run restored from a
  ///     checkpoint evolves bit-for-bit like the uninterrupted one.
  /// Migrant replicas are computed by the *sender* on the new owner's
  /// behalf — the decomposition is globally known — which is what makes the
  /// historical deliver-then-replicate second round unnecessary.
  RefreshStats refresh(comm::Comm& comm, tree::ParticleArray& particles) const;

  /// The sparse exchange stencil: every rank within L-inf min-image box
  /// distance <= 2*overload of this rank's domain (touching boxes — the 26
  /// Cartesian neighbors and self — always qualify, so the stencil is
  /// never empty). Self is a member because a migrant's replicas, built by
  /// the sender on the new owner's behalf, can target the sender itself;
  /// its block never crosses a rank boundary (memcpy fast path).
  /// 2*overload covers replicas of migrants that drifted up to one
  /// overload depth past the boundary; refresh HACC_CHECKs at pack time
  /// that no particle needs a rank outside it. Symmetric across ranks by
  /// construction (the distance is symmetric and exact — integer box
  /// bounds in double).
  const std::vector<int>& stencil() const noexcept { return stencil_; }

  /// Count (active, passive) without modifying anything.
  std::array<std::size_t, 2> census(const tree::ParticleArray& p) const;

 private:
  /// Wire format for the fused particle exchange (trivially copyable).
  /// `role` tags the packet: 0 = migrating active, 1 = passive replica.
  struct PackedParticle {
    float x, y, z, vx, vy, vz, mass;
    std::uint32_t role;
    std::uint64_t id;
  };

  /// One neighbor image: a rank viewed at a periodic offset, with its
  /// overload slab [lo, hi) expressed in the sending owner's frame and the
  /// shift to subtract when expressing a position in the receiver's frame.
  struct Image {
    int nbr = 0;
    std::array<double, 3> lo{}, hi{}, shift{};
  };

  /// The 26 neighbor images of `owner`'s domain (periodic offsets of the
  /// Cartesian topology), slabs widened by the overload depth.
  void build_images(int owner, std::array<Image, 26>& out) const;
  void build_stencil();

  mesh::BlockDecomp3D decomp_;
  int rank_;
  fft::Box3D box_;
  double overload_;
  std::vector<int> stencil_;            ///< sparse exchange peers (sorted)
  std::vector<int> slot_of_;            ///< rank -> stencil slot, -1 absent
  std::array<Image, 26> my_images_{};   ///< this rank's images, precomputed
  // Refresh scratch, reused across calls so the steady state allocates
  // nothing (one OverloadDomain per rank thread; refresh is not reentrant).
  mutable std::vector<int> owners_;
  mutable std::vector<PackedParticle> send_buf_, recv_buf_;
  mutable std::vector<std::size_t> send_counts_, recv_counts_, cursors_;
};

}  // namespace hacc::core
