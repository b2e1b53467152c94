#include "src/obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "src/util/check.h"

namespace dgs::obs {

namespace {

/// Shortest round-trip-exact rendering of a sample value ("17" stays "17",
/// byte totals keep every bit).
std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the compact form when it round-trips (it always does for the
  // small integers most counters hold).
  char compact[64];
  std::snprintf(compact, sizeof(compact), "%g", v);
  double back = 0.0;
  std::sscanf(compact, "%lf", &back);
  return back == v ? compact : buf;
}

}  // namespace

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
        out << name << ' ' << format_value(e.counter->value()) << '\n';
        break;
      case Kind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        out << name << ' ' << format_value(e.gauge->value()) << '\n';
        break;
      case Kind::kHistogram: {
        out << "# TYPE " << name << " histogram\n";
        const Histogram& h = *e.histogram;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          out << name << "_bucket{le=\""
              << format_value(h.upper_bounds()[i]) << "\"} "
              << h.cumulative_bucket(i) << '\n';
        }
        out << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
        out << name << "_sum " << format_value(h.sum()) << '\n';
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

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSnapshot m;
    m.name = name;
    m.help = e.help;
    switch (e.kind) {
      case Kind::kCounter:
        m.kind = 0;
        m.value = e.counter->value();
        break;
      case Kind::kGauge:
        m.kind = 1;
        m.value = e.gauge->value();
        break;
      case Kind::kHistogram:
        m.kind = 2;
        m.upper_bounds = e.histogram->upper_bounds();
        m.cells = e.histogram->cells();
        m.sum = e.histogram->sum();
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

void Registry::restore(std::span<const MetricSnapshot> metrics) {
  for (const MetricSnapshot& m : metrics) {
    switch (m.kind) {
      case 0:
        counter(m.name, m.help)->reset_to(m.value);
        break;
      case 1:
        gauge(m.name, m.help)->set(m.value);
        break;
      case 2: {
        Histogram* h = histogram(m.name, m.help, m.upper_bounds);
        DGS_ENSURE(h->upper_bounds() == m.upper_bounds,
                   "histogram '" << m.name
                                 << "' restored with different buckets");
        h->reset_to(m.cells, m.sum);
        break;
      }
      default:
        DGS_ENSURE(false, "unknown metric kind " << m.kind << " for '"
                                                 << m.name << "'");
    }
  }
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
    // NUL-terminated copy for strtod.
    const std::string value(line.substr(space + 1));
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) return false;
    *out = v;
    return true;
  }
  return false;
}

}  // namespace dgs::obs
