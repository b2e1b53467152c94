// E27 — multi-tenant fair share (DESIGN.md §16): three tenants with
// weights 1/2/4 fly interleaved slices of the constellation over the
// contended DGS 25% network for 24 h.  The deficit-weighted arbiter must
// (a) order realized shares by weight and pull the light/heavy tenants'
// shares toward their entitlements (exact proportionality is physically
// unreachable: a tenant's bytes are capped by its own fleet's pass
// windows, not just by its weight), and (b) cost essentially nothing:
// total delivered bytes must stay within 2% of the untenanted baseline
// (which a single tenant reproduces bit-for-bit).  The run is
// deterministic, so the thresholds gate exact, reproducible numbers; the
// binary exits non-zero when any property fails, so CI can gate on it.
#include <cmath>
#include <cstdio>

#include "bench/common.h"
#include "src/core/market.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E27: multi-tenant fair share (24 h, DGS 25%% = 43 "
              "stations, 4x demand, weights 1/2/4) ===\n\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  // Fair share only matters under scarcity: at the paper's 100 GB/day the
  // 43-station network delivers ~97% of demand and every weight vector
  // yields the same shares.  4x demand saturates the network, making
  // delivered bytes the contested resource the arbiter divides.
  std::vector<groundseg::SatelliteConfig> sats = setup.sats;
  for (auto& s : sats) s.data_generation_bytes_per_day *= 4.0;

  // Interleaved slices: tenant t flies satellites s with s % 3 == t, so
  // all three fleets see comparable orbits and the only asymmetry is the
  // configured weight.
  const auto tenant_of = [](std::size_t s) { return static_cast<int>(s % 3); };

  // Untenanted baseline: same fleet, no arbitration.  Its per-slice
  // shares are the "natural" split the arbiter must improve on.
  const core::SimulationOptions plain = day_sim();
  const core::SimulationResult base =
      core::Session(sats, setup.dgs25, &wx, plain).run_to_end();
  double natural[3] = {0, 0, 0};
  for (std::size_t s = 0; s < sats.size(); ++s) {
    natural[tenant_of(s)] += base.per_satellite[s].delivered_bytes;
  }
  for (double& n : natural) n /= base.total_delivered_bytes;

  const double weights[3] = {1.0, 2.0, 4.0};
  core::SimulationOptions opts = day_sim();
  opts.tenants.resize(3);
  for (int t = 0; t < 3; ++t) {
    opts.tenants[t].name = std::string("tenant_") + char('a' + t);
    opts.tenants[t].weight = weights[t];
  }
  for (std::size_t s = 0; s < sats.size(); ++s) {
    opts.tenants[tenant_of(s)].satellites.push_back(static_cast<int>(s));
  }
  const core::SimulationResult r =
      core::Session(sats, setup.dgs25, &wx, opts).run_to_end();

  std::printf("  %-10s %7s %12s %13s %9s %8s %9s\n", "tenant", "weight",
              "delivered", "entitlement", "natural", "share", "closure");
  bool ok = true;
  for (int t = 0; t < 3; ++t) {
    const core::TenantOutcome& o = r.per_tenant[t];
    // Fraction of the natural-split -> entitlement gap the arbiter
    // closed (1 = share lands exactly on entitlement).
    const double gap = o.entitlement - natural[t];
    const double closure =
        std::abs(gap) > 1e-12 ? (o.share - natural[t]) / gap : 1.0;
    std::printf("  %-10s %7.1f %9.2f TB %12.3f %9.3f %8.3f %8.0f%%\n",
                o.name.c_str(), o.weight, o.delivered_bytes / 1e12,
                o.entitlement, natural[t], o.share, 100.0 * closure);
    if (t > 0 && o.share <= r.per_tenant[t - 1].share) {
      std::printf("  FAIL: shares must ascend with weight\n");
      ok = false;
    }
    // Tenants whose entitlement sits far from the natural split must be
    // moved at least a quarter of the way there; near-entitled tenants
    // (the middle weight) just must not be pushed away.
    if (std::abs(gap) > 0.05 && closure < 0.20) {
      std::printf("  FAIL: %s closes only %.0f%% of its fairness gap "
                  "(need >= 20%%)\n",
                  o.name.c_str(), 100.0 * closure);
      ok = false;
    }
    if (std::abs(gap) <= 0.05 && std::abs(o.share - o.entitlement) > 0.10) {
      std::printf("  FAIL: %s share %.3f strays from entitlement %.3f\n",
                  o.name.c_str(), o.share, o.entitlement);
      ok = false;
    }
  }
  const double spread =
      r.per_tenant[2].share / r.per_tenant[0].share;
  std::printf("  heaviest/lightest share ratio: %.2f\n", spread);
  if (spread < 1.35) {
    std::printf("  FAIL: weight-4 tenant must out-deliver weight-1 by "
                ">= 1.35x (got %.2fx)\n",
                spread);
    ok = false;
  }

  const double total = r.total_delivered_bytes;
  const double drift = total / base.total_delivered_bytes - 1.0;
  std::printf("\n  total delivered: %.2f TB tenanted vs %.2f TB "
              "untenanted (%+.2f%%)\n",
              total / 1e12, base.total_delivered_bytes / 1e12,
              100.0 * drift);
  if (std::abs(drift) > 0.02) {
    std::printf("  FAIL: arbitration cost exceeds the 2%% budget\n");
    ok = false;
  }
  std::printf("\n  expected shape: the arbiter drags the natural ~1/3 "
              "splits toward entitlements 1/7, 2/7, 4/7 while "
              "redistributing — not shrinking — the network's total "
              "throughput.\n");
  std::printf("\n%s\n", ok ? "E27 PASS" : "E27 FAIL");
  return ok ? 0 : 1;
}
