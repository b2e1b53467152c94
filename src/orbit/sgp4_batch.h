// Constellation-scale SGP4: a whole fleet propagated per scheduling step.
//
// Sgp4Batch holds the derived constants of N element sets (one Sgp4Params
// per satellite) and propagates every satellite to the same absolute
// epoch in one call, chunk-tiled through the deterministic ThreadPool.
// Against N scalar Sgp4 objects it shares one GMST rotation across the
// fleet for the TEME->ECEF step instead of recomputing it per satellite.
//
// Determinism contract (DESIGN.md §14): every state is produced by the
// same sgp4_propagate kernel the scalar Sgp4 class calls, with identical
// per-satellite inputs, so batch output is bit-identical to the scalar
// path — per satellite, per epoch, at any thread count.  Chunk tiling
// writes disjoint per-index outputs only.
#pragma once

#include <span>
#include <vector>

#include "src/orbit/sgp4.h"
#include "src/util/thread_pool.h"

namespace dgs::orbit {

class Sgp4Batch {
 public:
  /// Initializes every element set (same validation as Sgp4; throws
  /// std::domain_error on the first invalid one).
  explicit Sgp4Batch(std::span<const Tle> tles);

  int size() const { return static_cast<int>(epochs_.size()); }
  const util::Epoch& epoch(int sat) const {
    return epochs_[static_cast<std::size_t>(sat)];
  }

  /// State of one satellite at `when` — bit-identical to
  /// Sgp4(tle).propagate_to(when).
  TemeState propagate_one(int sat, const util::Epoch& when) const;

  /// TEME positions of the whole fleet at `when`, written to the
  /// index-aligned `out` (size() entries).  Chunk-tiled over `pool` when
  /// non-null; output is identical for any pool configuration.
  void positions_teme(const util::Epoch& when, std::span<util::Vec3> out,
                      util::ThreadPool* pool = nullptr) const;

  /// ECEF positions of the whole fleet at `when` (GMST rotation computed
  /// once and shared).  Bit-identical to rotating each satellite with
  /// orbit::teme_to_ecef.
  void positions_ecef(const util::Epoch& when, std::span<util::Vec3> out,
                      util::ThreadPool* pool = nullptr) const;

 private:
  std::vector<Sgp4Params> params_;
  std::vector<util::Epoch> epochs_;
};

}  // namespace dgs::orbit
