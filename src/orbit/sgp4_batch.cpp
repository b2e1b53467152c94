#include "src/orbit/sgp4_batch.h"

#include <cmath>

#include "src/util/check.h"

namespace dgs::orbit {

Sgp4Batch::Sgp4Batch(std::span<const Tle> tles) {
  params_.reserve(tles.size());
  epochs_.reserve(tles.size());
  for (const Tle& tle : tles) {
    params_.push_back(sgp4_init(tle));
    epochs_.push_back(tle.epoch);
  }
}

TemeState Sgp4Batch::propagate_one(int sat, const util::Epoch& when) const {
  const auto i = static_cast<std::size_t>(sat);
  return sgp4_propagate(params_[i], when.minutes_since(epochs_[i]));
}

void Sgp4Batch::positions_teme(const util::Epoch& when,
                               std::span<util::Vec3> out,
                               util::ThreadPool* pool) const {
  DGS_ENSURE_EQ(static_cast<int>(out.size()), size());
  const auto body = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t s = begin; s < end; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const TemeState st =
          sgp4_propagate(params_[i], when.minutes_since(epochs_[i]));
      out[i] = st.position_km;
    }
  };
  util::parallel_for(pool, size(), body);
}

void Sgp4Batch::positions_ecef(const util::Epoch& when,
                               std::span<util::Vec3> out,
                               util::ThreadPool* pool) const {
  DGS_ENSURE_EQ(static_cast<int>(out.size()), size());
  // One GMST evaluation for the whole fleet; the rotation below is the
  // same expression orbit::teme_to_ecef applies per call.
  const double theta = util::gmst(when.jd());
  const double c = std::cos(theta), sn = std::sin(theta);
  const auto body = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t s = begin; s < end; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const TemeState st =
          sgp4_propagate(params_[i], when.minutes_since(epochs_[i]));
      const util::Vec3& r = st.position_km;
      out[i] = {c * r.x + sn * r.y, -sn * r.x + c * r.y, r.z};
    }
  };
  util::parallel_for(pool, size(), body);
}

}  // namespace dgs::orbit
