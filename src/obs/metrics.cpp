#include "src/obs/metrics.h"

#include <cstdio>
#include <ostream>

#include "src/util/check.h"
#include "src/util/parse.h"

namespace dgs::obs {

std::string round_trip_number(double v) {
  char compact[64];
  std::snprintf(compact, sizeof(compact), "%g", v);
  double back = 0.0;
  std::sscanf(compact, "%lf", &back);
  if (back == v) return compact;
  char exact[64];
  std::snprintf(exact, sizeof(exact), "%.17g", v);
  return exact;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  DGS_ENSURE(!bounds_.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    DGS_ENSURE(bounds_[i - 1] < bounds_[i],
               "bounds must ascend: " << bounds_[i - 1] << " then "
                                      << bounds_[i]);
  }
  cells_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  internal::dcheck_driver_thread();
  // Lower-bound search over the (short) bound list; the overflow cell is
  // the implicit +Inf bucket.
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  ++cells_[b];
  sum_ += v;
}

std::uint64_t Histogram::cumulative_bucket(std::size_t i) const {
  DGS_ENSURE_LT(i, bounds_.size());
  std::uint64_t n = 0;
  for (std::size_t b = 0; b <= i; ++b) n += cells_[b];
  return n;
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : cells_) n += c;
  return n;
}

void Histogram::reset_to(std::span<const std::uint64_t> cells, double sum) {
  internal::dcheck_driver_thread();
  DGS_ENSURE_EQ(cells.size(), cells_.size());
  cells_.assign(cells.begin(), cells.end());
  sum_ = sum;
}

Registry::Entry& Registry::entry_for(const std::string& name, Kind kind,
                                     const std::string& help) {
  DGS_ENSURE(!name.empty(), "metric name must be non-empty");
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    DGS_ENSURE(it->second.kind == kind,
               "metric '" << name << "' re-registered as a different type");
    return it->second;
  }
  Entry e;
  e.kind = kind;
  e.help = help;
  return entries_.emplace(name, std::move(e)).first->second;
}

Counter* Registry::counter(const std::string& name, const std::string& help) {
  Entry& e = entry_for(name, Kind::kCounter, help);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return e.counter.get();
}

Gauge* Registry::gauge(const std::string& name, const std::string& help) {
  Entry& e = entry_for(name, Kind::kGauge, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return e.gauge.get();
}

Histogram* Registry::histogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> upper_bounds) {
  Entry& e = entry_for(name, Kind::kHistogram, help);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return e.histogram.get();
}

void Registry::write_prometheus(std::ostream& out) const {
  for (const auto& [name, e] : entries_) {
    out << "# HELP " << name << ' ' << e.help << '\n';
    switch (e.kind) {
      case Kind::kCounter:
        out << "# TYPE " << name << " counter\n";
        out << name << ' ' << round_trip_number(e.counter->value()) << '\n';
        break;
      case Kind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        out << name << ' ' << round_trip_number(e.gauge->value()) << '\n';
        break;
      case Kind::kHistogram: {
        out << "# TYPE " << name << " histogram\n";
        const Histogram& h = *e.histogram;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          out << name << "_bucket{le=\""
              << round_trip_number(h.upper_bounds()[i]) << "\"} "
              << h.cumulative_bucket(i) << '\n';
        }
        out << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
        out << name << "_sum " << round_trip_number(h.sum()) << '\n';
        out << name << "_count " << h.count() << '\n';
        break;
      }
    }
  }
}

std::size_t Registry::series_count() const {
  std::size_t n = 0;
  for (const auto& [name, e] : entries_) {
    (void)name;
    n += e.kind == Kind::kHistogram
             ? e.histogram->upper_bounds().size() + 3  // buckets+Inf+sum+cnt
             : 1;
  }
  return n;
}

bool read_prometheus_sample(std::string_view exposition,
                            std::string_view name, double* out) {
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t eol = exposition.find('\n', pos);
    if (eol == std::string_view::npos) eol = exposition.size();
    const std::string_view line = exposition.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos || line.substr(0, space) != name) {
      continue;
    }
    return util::parse_whole(line.substr(space + 1), out);
  }
  return false;
}

}  // namespace dgs::obs
