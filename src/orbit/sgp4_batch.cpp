#include "src/orbit/sgp4_batch.h"

#include <cmath>

#include "src/util/check.h"

namespace dgs::orbit {

Sgp4Batch::Sgp4Batch(std::span<const Tle> tles) {
  const std::size_t n = tles.size();
#define DGS_SGP4_RESERVE(name) name##_.reserve(n);
  DGS_SGP4_PARAM_FIELDS(DGS_SGP4_RESERVE)
#undef DGS_SGP4_RESERVE
  isimp_.reserve(n);
  epochs_.reserve(n);
  for (const Tle& tle : tles) {
    const Sgp4Params p = sgp4_init(tle);
#define DGS_SGP4_PUSH(name) name##_.push_back(p.name);
    DGS_SGP4_PARAM_FIELDS(DGS_SGP4_PUSH)
#undef DGS_SGP4_PUSH
    isimp_.push_back(p.isimp ? 1 : 0);
    epochs_.push_back(tle.epoch);
  }
}

Sgp4Params Sgp4Batch::gather(std::size_t i) const {
  Sgp4Params p;
#define DGS_SGP4_GATHER(name) p.name = name##_[i];
  DGS_SGP4_PARAM_FIELDS(DGS_SGP4_GATHER)
#undef DGS_SGP4_GATHER
  p.isimp = isimp_[i] != 0;
  return p;
}

TemeState Sgp4Batch::propagate_one(int sat, const util::Epoch& when) const {
  const auto i = static_cast<std::size_t>(sat);
  return sgp4_propagate(gather(i), when.minutes_since(epochs_[i]));
}

void Sgp4Batch::positions_teme(const util::Epoch& when,
                               std::span<util::Vec3> out,
                               util::ThreadPool* pool) const {
  DGS_ENSURE_EQ(static_cast<int>(out.size()), size());
  const auto body = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t s = begin; s < end; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const TemeState st =
          sgp4_propagate(gather(i), when.minutes_since(epochs_[i]));
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
          sgp4_propagate(gather(i), when.minutes_since(epochs_[i]));
      const util::Vec3& r = st.position_km;
      out[i] = {c * r.x + sn * r.y, -sn * r.x + c * r.y, r.z};
    }
  };
  util::parallel_for(pool, size(), body);
}

}  // namespace dgs::orbit
