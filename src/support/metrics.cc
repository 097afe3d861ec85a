#include "src/support/metrics.h"

#include <algorithm>

#include "src/support/json.h"
#include "src/support/metric_names.h"
#include "src/support/trace.h"

namespace hac {

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumentation sites cache references for the process
  // lifetime, and static-destruction order must not invalidate them.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    for (const char* name : metric_names::kAllCounters) {
      r->GetCounter(name);
    }
    for (const char* name : metric_names::kAllGauges) {
      r->GetGauge(name);
    }
    for (const char* name : metric_names::kAllHistograms) {
      std::string n = name;
      const char* unit = "us";
      if (n.size() >= 5 && n.compare(n.size() - 5, 5, "_size") == 0) {
        unit = "requests";
      } else if (n.size() >= 4 && n.compare(n.size() - 4, 4, "_pct") == 0) {
        unit = "pct";
      } else if (n.size() >= 3 && n.compare(n.size() - 3, 3, "_ns") == 0) {
        unit = "ns";
      } else if ((n.size() >= 7 && n.compare(n.size() - 7, 7, "_frames") == 0) ||
                 (n.size() >= 9 && n.compare(n.size() - 9, 9, "_per_wake") == 0)) {
        unit = "frames";
      }
      r->GetHistogram(n, unit);
    }
    return r;
  }();
  return *registry;
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

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot.second == nullptr) {
    slot.first = unit;
    slot.second = std::make_unique<Histogram>();
  }
  return *slot.second;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) {
    return 0.0;
  }
  // Rank of the requested quantile among `total` samples (1-based).
  double rank = q * static_cast<double>(total - 1) + 1.0;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) {
      continue;
    }
    if (static_cast<double>(seen + counts[b]) >= rank) {
      if (b == 0) {
        return 0.0;  // bucket 0 holds exactly the value 0 — nothing to interpolate
      }
      // Linear interpolation across the bucket's value range by intra-bucket rank.
      double lo = static_cast<double>(BucketLowerBound(b));
      double hi = static_cast<double>(BucketUpperBound(b));
      double frac = (rank - static_cast<double>(seen)) / static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += counts[b];
  }
  return static_cast<double>(MaxBound());
}

uint64_t Histogram::MaxBound() const {
  for (size_t b = kBuckets; b-- > 0;) {
    if (buckets_[b].load(std::memory_order_relaxed) != 0) {
      return BucketUpperBound(b);
    }
  }
  return 0;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, entry] : histograms_) {
    const Histogram& h = *entry.second;
    HistogramSnapshot hs;
    hs.name = name;
    hs.unit = entry.first;
    hs.count = h.Count();
    hs.sum = h.Sum();
    hs.mean = h.Mean();
    hs.p50 = h.Quantile(0.50);
    hs.p95 = h.Quantile(0.95);
    hs.p99 = h.Quantile(0.99);
    hs.max_bound = h.MaxBound();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;  // std::map iteration is already name-sorted
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    names.push_back(name);
  }
  for (const auto& [name, gauge] : gauges_) {
    names.push_back(name);
  }
  for (const auto& [name, entry] : histograms_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->ResetForTest();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->ResetForTest();
  }
  for (auto& [name, entry] : histograms_) {
    entry.second->ResetForTest();
  }
}

std::string IntrospectStatsJson() {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  JsonObject counters;
  for (const auto& [name, value] : snap.counters) {
    counters.Add(name, value);
  }
  JsonObject gauges;
  for (const auto& [name, value] : snap.gauges) {
    if (value < 0) {
      gauges.Add(name, static_cast<int>(value));
    } else {
      gauges.Add(name, static_cast<uint64_t>(value));
    }
  }
  JsonObject histograms;
  for (const HistogramSnapshot& h : snap.histograms) {
    JsonObject one;
    one.Add("unit", h.unit)
        .Add("count", h.count)
        .Add("sum", h.sum)
        .Add("mean", h.mean)
        .Add("p50", h.p50)
        .Add("p95", h.p95)
        .Add("p99", h.p99)
        .Add("max_bound", h.max_bound);
    histograms.Add(h.name, one);
  }
  TraceRing& ring = TraceRing::Global();
  JsonObject trace;
  trace.AddBool("enabled", ring.enabled())
      .Add("capacity", static_cast<uint64_t>(TraceRing::kCapacity))
      .Add("recorded", ring.recorded())
      .Add("dropped", ring.dropped());
  std::vector<std::string> spans(std::begin(metric_names::kAllSpans),
                                 std::end(metric_names::kAllSpans));

  JsonObject out;
  out.Add("schema", "hac.introspect.v1")
      .AddBool("metrics_enabled", kMetricsCompiledIn)
      .Add("counters", counters)
      .Add("gauges", gauges)
      .Add("histograms", histograms)
      .Add("spans", spans)
      .Add("trace", trace);
  return out.Str();
}

}  // namespace hac
