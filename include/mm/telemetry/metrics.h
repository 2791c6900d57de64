// Per-node metrics registry (DESIGN.md §11): named counters, gauges and
// fixed-bucket histograms backed by relaxed atomics, cheap enough to sit
// next to the §7 hot paths. Handles (Counter*, Gauge*, Histogram*) are
// resolved once at construction time under the registry mutex and then
// incremented lock-free; registration is the only synchronized operation.
//
// Compile-out: configuring with -DMM_TELEMETRY=OFF defines
// MM_TELEMETRY_ENABLED=0 and swaps every class below for a stateless
// inline stub, so instrumentation compiles to nothing.
//
// Metric names follow `mm.<subsystem>.<name>` with a unit suffix
// (`_bytes`, `_ns`, `_count`, `_ratio`) — enforced by ci/mm_verify.py MML006.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "mm/util/mutex.h"

#ifndef MM_TELEMETRY_ENABLED
#define MM_TELEMETRY_ENABLED 1
#endif

namespace mm::telemetry {

/// Point-in-time copy of one histogram's state.
struct HistogramSnapshot {
  std::vector<double> bounds;          // upper bucket bounds, ascending
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// Point-in-time copy of a whole registry (std::map for stable report
/// ordering).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Accumulates `other` into this snapshot (cluster-total aggregation).
  void Merge(const MetricsSnapshot& other);
};

#if MM_TELEMETRY_ENABLED

/// Monotonic event counter. Relaxed increments: totals are exact, but
/// cross-metric ordering is unspecified — fine for reporting.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, occupancy). Set/Add are relaxed.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. Observe() is lock-free: a binary search over the
/// immutable bounds plus two relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }

  HistogramSnapshot Snapshot() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential latency bounds in virtual nanoseconds: 1 µs .. 10 s.
std::vector<double> LatencyBoundsNs();

/// One registry per node. Get* registers on first use and returns a stable
/// pointer (metrics live in deques, never reallocated); subsequent calls
/// with the same name return the same object. Increment through the
/// returned handle, not by name.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is consulted only on first registration.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  /// Shared sink for components constructed without telemetry wiring:
  /// callers never need a null check, increments land in a registry nobody
  /// reports on.
  static MetricsRegistry& Dummy();

 private:
  // mm-verify: leaf-lock(registry interning only, never calls out while held)
  mutable Mutex mu_;
  std::deque<Counter> counters_ MM_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ MM_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ MM_GUARDED_BY(mu_);
  std::map<std::string, Counter*> counter_names_ MM_GUARDED_BY(mu_);
  std::map<std::string, Gauge*> gauge_names_ MM_GUARDED_BY(mu_);
  std::map<std::string, Histogram*> histogram_names_ MM_GUARDED_BY(mu_);
};

#else  // !MM_TELEMETRY_ENABLED

// Stateless stubs: every call inlines to nothing, every read returns zero.
class Counter {
 public:
  void Inc(std::uint64_t = 1) {}
  std::uint64_t value() const { return 0; }
};

class Gauge {
 public:
  void Set(std::int64_t) {}
  void Add(std::int64_t) {}
  std::int64_t value() const { return 0; }
};

class Histogram {
 public:
  void Observe(double) {}
  std::uint64_t count() const { return 0; }
  double sum() const { return 0.0; }
  HistogramSnapshot Snapshot() const { return {}; }
};

inline std::vector<double> LatencyBoundsNs() { return {}; }

class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string&) { return &counter_; }
  Gauge* GetGauge(const std::string&) { return &gauge_; }
  Histogram* GetHistogram(const std::string&, std::vector<double>) {
    return &histogram_;
  }
  MetricsSnapshot Snapshot() const { return {}; }
  static MetricsRegistry& Dummy();

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

#endif  // MM_TELEMETRY_ENABLED

}  // namespace mm::telemetry
