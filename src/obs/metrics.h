// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Every quantity the paper's evaluation reports — failure ratio vs.
// utilization, diversion rates, cache hit rate, lookup hops and proximity
// distance — flows through one of these instruments instead of ad-hoc struct
// fields. A registry is a flat name → instrument map; scoping is by
// convention (one registry per node plus a network-global one) and
// `MetricsSnapshot::Merge` aggregates scopes by summing same-named
// instruments, so per-node and network-wide views use the same machinery.
//
// The obs layer depends only on the standard library so every other layer
// (net, cache, storage, past, harness) can link against it.
//
// Threading model (harness suite runs experiments concurrently): the design
// is share-nothing — each experiment owns its registry and never shares it
// across threads, so the instruments (Counter/Gauge/HistogramMetric) are
// deliberately not atomic; making them so would tax the single-threaded hot
// path every experiment runs on. The registry's name → instrument map IS
// mutex-guarded, so creating/looking up instruments and taking a Snapshot()
// are safe even if a registry does end up visible to two threads (e.g. a
// monitor thread snapshotting while an experiment runs); only concurrent
// Inc/Set/Observe on one *instrument* requires external serialization.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace past {
namespace obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// A value that can move both ways (bytes stored, live replicas, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  void Sub(double d) { value_ -= d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram. Bucket i counts observations <= upper_bounds[i];
// one implicit overflow bucket counts everything above the last bound.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  // buckets().size() == upper_bounds().size() + 1 (the overflow bucket).
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

 private:
  std::vector<double> upper_bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Bucket-bound helpers for the standard instruments.
std::vector<double> LinearBuckets(double start, double width, size_t count);
std::vector<double> ExponentialBuckets(double start, double factor, size_t count);
// Routing hops: 0,1,...,15 (paper: ~log_16 N, well under 16 at any scale run).
std::vector<double> HopBuckets();
// File sizes in bytes: powers of 4 from 256 B to 4 GB, bracketing both the
// web trace (~10 kB median) and the filesystem trace (~88 kB mean, heavy
// tail) of the paper's Table 2 distributions.
std::vector<double> FileSizeBuckets();
// Proximity distance per operation on the unit-torus topology.
std::vector<double> DistanceBuckets();

// Plain-data view of a histogram, for snapshots and JSON output.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<uint64_t> buckets;  // upper_bounds.size() + 1 entries
  uint64_t count = 0;
  double sum = 0.0;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

// Point-in-time copy of a registry (or a merge of several).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Sums `other` into this snapshot: counters and gauges add; histograms
  // add bucket-wise (bounds must match — same-named instruments created via
  // the standard helpers always do).
  void Merge(const MetricsSnapshot& other);

  // Missing names read as zero, so callers can compute ratios without
  // probing for existence first.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

// Name → instrument map. Instruments are created on first access and live as
// long as the registry; returned references are stable. Map access is
// mutex-guarded (see the threading model above); instrument mutation is not.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // `upper_bounds` is consulted only on first creation.
  HistogramMetric& GetHistogram(const std::string& name, std::vector<double> upper_bounds);

  // Read-side lookups; nullptr when the instrument was never created.
  const Counter* FindCounter(const std::string& name) const;
  const HistogramMetric* FindHistogram(const std::string& name) const;

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;  // guards the three maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

// Serializes a snapshot as pretty-printed JSON (stable key order).
std::string MetricsJson(const MetricsSnapshot& snapshot);

// Writes MetricsJson(snapshot) to `path`; returns false on I/O failure.
bool WriteMetricsJson(const std::string& path, const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace past

#endif  // SRC_OBS_METRICS_H_
