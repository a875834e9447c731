#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace past {
namespace obs {

HistogramMetric::HistogramMetric(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)), buckets_(upper_bounds_.size() + 1, 0) {}

void HistogramMetric::Observe(double v) {
  size_t i = static_cast<size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v) - upper_bounds_.begin());
  ++buckets_[i];
  ++count_;
  sum_ += v;
}

std::vector<double> LinearBuckets(double start, double width, size_t count) {
  std::vector<double> bounds(count);
  for (size_t i = 0; i < count; ++i) {
    bounds[i] = start + width * static_cast<double>(i);
  }
  return bounds;
}

std::vector<double> ExponentialBuckets(double start, double factor, size_t count) {
  std::vector<double> bounds(count);
  double v = start;
  for (size_t i = 0; i < count; ++i) {
    bounds[i] = v;
    v *= factor;
  }
  return bounds;
}

std::vector<double> HopBuckets() { return LinearBuckets(0.0, 1.0, 16); }

std::vector<double> FileSizeBuckets() { return ExponentialBuckets(256.0, 4.0, 12); }

std::vector<double> DistanceBuckets() { return LinearBuckets(0.0, 0.25, 20); }

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] += value;
  }
  for (const auto& [name, hist] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = hist;
      continue;
    }
    HistogramSnapshot& mine = it->second;
    if (mine.buckets.size() != hist.buckets.size()) {
      continue;  // incompatible bounds: keep the first-seen shape
    }
    for (size_t i = 0; i < mine.buckets.size(); ++i) {
      mine.buckets[i] += hist.buckets[i];
    }
    mine.count += hist.count;
    mine.sum += hist.sum;
  }
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::GaugeValue(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

HistogramMetric& MetricsRegistry::GetHistogram(const std::string& name,
                                               std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<HistogramMetric>(std::move(upper_bounds));
  }
  return *slot;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const HistogramMetric* MetricsRegistry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.upper_bounds = hist->upper_bounds();
    h.buckets = hist->buckets();
    h.count = hist->count();
    h.sum = hist->sum();
    snapshot.histograms[name] = std::move(h);
  }
  return snapshot;
}

namespace {

// JSON numbers must not be NaN/Inf; normal doubles print with enough digits
// to round-trip, and integral values print without an exponent.
void AppendJsonNumber(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "0";
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    out << static_cast<long long>(v);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(out, name);
    out << ": " << value;
  }
  out << (snapshot.counters.empty() ? "},\n" : "\n  },\n");

  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(out, name);
    out << ": ";
    AppendJsonNumber(out, value);
  }
  out << (snapshot.gauges.empty() ? "},\n" : "\n  },\n");

  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(out, name);
    out << ": {\"upper_bounds\": [";
    for (size_t i = 0; i < hist.upper_bounds.size(); ++i) {
      if (i != 0) {
        out << ", ";
      }
      AppendJsonNumber(out, hist.upper_bounds[i]);
    }
    out << "], \"buckets\": [";
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i != 0) {
        out << ", ";
      }
      out << hist.buckets[i];
    }
    out << "], \"count\": " << hist.count << ", \"sum\": ";
    AppendJsonNumber(out, hist.sum);
    out << "}";
  }
  out << (snapshot.histograms.empty() ? "}\n" : "\n  }\n");
  out << "}\n";
  return out.str();
}

bool WriteMetricsJson(const std::string& path, const MetricsSnapshot& snapshot) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << MetricsJson(snapshot);
  return static_cast<bool>(out);
}

}  // namespace obs
}  // namespace past
