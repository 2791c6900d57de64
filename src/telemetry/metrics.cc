#include "mm/telemetry/metrics.h"

#include <algorithm>

namespace mm::telemetry {

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms.emplace(name, h);
      continue;
    }
    HistogramSnapshot& mine = it->second;
    if (mine.buckets.size() != h.buckets.size()) continue;  // shape mismatch
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      mine.buckets[i] += h.buckets[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double v) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    snap.buckets.push_back(b.load(std::memory_order_relaxed));
  }
  snap.count = count();
  snap.sum = sum();
  return snap;
}

std::vector<double> LatencyBoundsNs() {
  // 1 µs .. 10 s of virtual time, one decade per bucket.
  return {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10};
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto it = counter_names_.find(name);
  if (it != counter_names_.end()) return it->second;
  counters_.emplace_back();
  Counter* c = &counters_.back();
  counter_names_.emplace(name, c);
  return c;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto it = gauge_names_.find(name);
  if (it != gauge_names_.end()) return it->second;
  gauges_.emplace_back();
  Gauge* g = &gauges_.back();
  gauge_names_.emplace(name, g);
  return g;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  auto it = histogram_names_.find(name);
  if (it != histogram_names_.end()) return it->second;
  histograms_.emplace_back(std::move(bounds));
  Histogram* h = &histograms_.back();
  histogram_names_.emplace(name, h);
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counter_names_) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, g] : gauge_names_) {
    snap.gauges.emplace(name, g->value());
  }
  for (const auto& [name, h] : histogram_names_) {
    snap.histograms.emplace(name, h->Snapshot());
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::Dummy() {
  static MetricsRegistry dummy;
  return dummy;
}

}  // namespace mm::telemetry
